//! Sharded, memory-budgeted driver for the bounded-distance engine.
//!
//! [`PackedRows`] materializes the packed (or sparse-copied) rows plus
//! their norm buckets in RAM — fine at realorg scale (50 300 × 89 900),
//! hopeless at the million-user scale the roadmap targets.
//! [`PackedShards`] is the one driver of the exact T4/T5 distance plane;
//! `memory_budget_bytes` only sets how many row blocks it walks:
//!
//! 1. **Deterministic shard plan.** Rows are counting-sorted by norm
//!    (stable, so ascending row index within equal norms) and cut into
//!    norm-contiguous shard blocks whose estimated resident footprint
//!    fits half the budget each (two shards are resident during a cross
//!    pass). The plan is a pure function of the input's norms, width,
//!    density and the budget — never of the thread count — so every
//!    downstream result is identical at any parallelism. A plan of one
//!    shard (budget `0`, or one every row fits) keeps the caller's row
//!    order: its walk is exactly [`PackedRows`]'s over the whole matrix.
//! 2. **Tiles.** [`PackedShards::for_each_tile`] builds each shard on
//!    demand (through [`RowSubsetView`], a reordering row view of the
//!    backing matrix) and hands out its self pass, then a cross pass
//!    against every later shard whose norm range overlaps its band: at
//!    most two blocks are resident, and out-of-band shard pairs are never
//!    built. A [`Tile`] reports its pairs per row range, in global row
//!    ids with `i < j`, so a caller folds them as they are found.
//! 3. **Norm-sorted block layout.** A multi-shard plan stores each
//!    shard's rows in norm order, so a band walk touches rows (and their
//!    packed words) sequentially in memory. Cross-shard candidates reuse
//!    the shards' norm buckets, and distances go through
//!    [`PackedRows::bounded_hamming_cross`], sharing the flat engine's
//!    early-exit kernels.
//!
//! Every pair within the bound lies in exactly one tile, so
//! [`PackedShards::pairs_within`] (the tiles' pairs, sorted by `(i, j)`)
//! is bit-identical to the flat engine's at every shard count. The
//! budget bounds the packed row blocks, never what a caller keeps.

use std::ops::Range;

use crate::bitvec::words_for;
use crate::packed::PackedRows;
use crate::parallel;
use crate::signature::RowSignature;
use crate::traits::RowMatrix;

/// Estimated fixed per-row bookkeeping cost of a resident shard
/// (norm + bucket member + sparse span start/capacity), in bytes.
const ROW_OVERHEAD_BYTES: usize = 24;

/// A deterministic partition of a row set into norm-contiguous shard
/// blocks under a memory budget.
///
/// The plan depends only on the input matrix (its row norms, width and
/// density) and `memory_budget_bytes` — *not* on the thread count — so
/// a sharded computation is reproducible at any parallelism. See the
/// [module docs](self) for the full argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// All row indices: counting-sorted by norm (stable: ascending row
    /// index within equal norms) when the plan has several shards,
    /// ascending when it has one.
    order: Vec<u32>,
    /// Shard boundaries into `order`: shard `s` covers
    /// `order[bounds[s]..bounds[s + 1]]`; `bounds.len() == n_shards + 1`.
    bounds: Vec<usize>,
    /// Whether the global density key chose the packed representation.
    /// Shared by every shard so cross-shard kernels never mix
    /// representations.
    packed: bool,
}

impl ShardPlan {
    /// Builds the plan for rows with the given `norms` over `cols`
    /// columns and `nnz` total set bits, under `memory_budget_bytes`
    /// (`0` = unbounded, one shard). The representation key is the same
    /// density rule [`PackedRows::from_matrix`] applies, evaluated
    /// globally so every shard agrees.
    pub fn new(norms: &[u32], cols: usize, nnz: usize, memory_budget_bytes: usize) -> ShardPlan {
        let rows = norms.len();
        let avg2 = (2 * nnz).checked_div(rows).unwrap_or(0);
        let packed = words_for(cols) <= avg2.max(8);

        let row_cost = |norm: u32| -> usize {
            ROW_OVERHEAD_BYTES
                + if packed {
                    words_for(cols) * 8
                } else {
                    norm as usize * 4
                }
        };
        // Two shards are resident during a cross pass, so each gets half
        // the budget — but never less than the largest single row, so
        // every row fits in some shard.
        let cap = if memory_budget_bytes == 0 {
            usize::MAX
        } else {
            let max_row = norms.iter().map(|&nm| row_cost(nm)).max().unwrap_or(0);
            (memory_budget_bytes / 2).max(max_row)
        };
        let total = norms
            .iter()
            .fold(0usize, |acc, &nm| acc.saturating_add(row_cost(nm)));
        if total <= cap {
            // Everything fits one shard, which keeps the caller's row
            // order (see the module docs).
            return ShardPlan {
                order: (0..rows).map(|i| i as u32).collect(),
                bounds: vec![0, rows],
                packed,
            };
        }

        // Counting-sort rows by norm — the same stable order the flat
        // engine's buckets use.
        let max_norm = norms.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0usize; max_norm + 2];
        for &nm in norms {
            counts[nm as usize + 1] += 1;
        }
        for b in 0..=max_norm {
            counts[b + 1] += counts[b];
        }
        let mut order = vec![0u32; rows];
        for (i, &nm) in norms.iter().enumerate() {
            order[counts[nm as usize]] = i as u32;
            counts[nm as usize] += 1;
        }

        let mut bounds = vec![0usize];
        let mut shard_bytes = 0usize;
        for (k, &r) in order.iter().enumerate() {
            let cost = row_cost(norms[r as usize]);
            if shard_bytes > 0 && shard_bytes.saturating_add(cost) > cap {
                bounds.push(k);
                shard_bytes = 0;
            }
            shard_bytes += cost;
        }
        bounds.push(rows);
        ShardPlan {
            order,
            bounds,
            packed,
        }
    }

    /// Number of shard blocks (1 when the budget is unbounded or
    /// everything fits).
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Global row indices of shard `s`: in norm order, except that the
    /// one shard of a one-shard plan keeps the caller's row order.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards()`.
    pub fn shard_rows(&self, s: usize) -> &[u32] {
        &self.order[self.bounds[s]..self.bounds[s + 1]]
    }
}

/// A borrowed row-subset (and row-reorder) view of a [`RowMatrix`]:
/// view-row `i` is base-row `rows[i]`. The sharded engine uses it to
/// build each shard's [`PackedRows`] directly from the backing matrix in
/// norm order, without materializing an intermediate copy.
pub struct RowSubsetView<'m, M: ?Sized> {
    base: &'m M,
    rows: &'m [u32],
}

impl<'m, M: RowMatrix + ?Sized> RowSubsetView<'m, M> {
    /// Wraps `base`, exposing exactly the rows listed in `rows` (global
    /// indices, any order, duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any listed row is out of range for `base`.
    pub fn new(base: &'m M, rows: &'m [u32]) -> Self {
        for &r in rows {
            assert!(
                (r as usize) < base.rows(),
                "row {r} out of range for {} base rows",
                base.rows()
            );
        }
        RowSubsetView { base, rows }
    }

    fn map(&self, i: usize) -> usize {
        self.rows[i] as usize
    }
}

impl<M: RowMatrix + ?Sized> RowMatrix for RowSubsetView<'_, M> {
    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn cols(&self) -> usize {
        self.base.cols()
    }

    fn row_norm(&self, i: usize) -> usize {
        self.base.row_norm(self.map(i))
    }

    fn row_hamming(&self, i: usize, j: usize) -> usize {
        self.base.row_hamming(self.map(i), self.map(j))
    }

    fn row_dot(&self, i: usize, j: usize) -> usize {
        self.base.row_dot(self.map(i), self.map(j))
    }

    fn row_indices(&self, i: usize) -> Vec<usize> {
        self.base.row_indices(self.map(i))
    }

    fn row_signature(&self, i: usize) -> RowSignature {
        self.base.row_signature(self.map(i))
    }

    fn col_sums(&self) -> Vec<usize> {
        let mut sums = vec![0usize; self.base.cols()];
        for i in 0..self.rows.len() {
            for j in self.row_indices(i) {
                sums[j] += 1;
            }
        }
        sums
    }
}

/// One resident shard block: its engine plus the global indices its
/// local rows map back to.
struct ShardBlock<'p> {
    rows: PackedRows,
    global: &'p [u32],
}

/// The memory-budgeted driver of the exact bounded-distance plane: the
/// rows of a [`RowMatrix`] planned once into shard blocks
/// ([`ShardPlan`]) and walked tile by tile ([`for_each_tile`]), with at
/// most two shard blocks resident at once. Every result is bit-identical
/// at every thread count *and* shard count. See the [module docs](self).
///
/// [`for_each_tile`]: PackedShards::for_each_tile
pub struct PackedShards<'m, M: RowMatrix + Sync + ?Sized> {
    matrix: &'m M,
    plan: ShardPlan,
    threads: usize,
}

impl<'m, M: RowMatrix + Sync + ?Sized> PackedShards<'m, M> {
    /// Plans shards for `matrix` under `memory_budget_bytes` (`0` =
    /// unbounded), from row norms computed on `threads` workers. No
    /// shard is built until a walk runs, and every walk reuses the plan.
    pub fn new(matrix: &'m M, memory_budget_bytes: usize, threads: usize) -> Self {
        let norms: Vec<u32> = parallel::par_map_rows(matrix.rows(), threads, |range| {
            range.map(|i| matrix.row_norm(i) as u32).collect()
        });
        let nnz = norms.iter().map(|&n| n as usize).sum();
        let plan = ShardPlan::new(&norms, matrix.cols(), nnz, memory_budget_bytes);
        PackedShards {
            matrix,
            plan,
            threads,
        }
    }

    /// Number of shard blocks in the plan.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// Builds shard `s`'s engine from the backing matrix, forcing the
    /// plan's global representation so cross-shard kernels never mix.
    fn build_shard(&self, s: usize) -> ShardBlock<'_> {
        let global = self.plan.shard_rows(s);
        let view = RowSubsetView::new(self.matrix, global);
        let rows = if self.plan.packed {
            PackedRows::packed_from_matrix(&view, self.threads)
        } else {
            PackedRows::sparse_from_matrix(&view, self.threads)
        };
        ShardBlock { rows, global }
    }

    /// The walk of the plane within `bound`: `visit` gets every tile in
    /// a fixed order — for each shard in plan order, its self pass, then
    /// a cross pass against each later shard whose norm range overlaps
    /// its band. Shards ascend in norm, so the first shard whose first
    /// row is out of band ends a shard's cross passes without being
    /// built. Every pair within `bound` lies in exactly one tile. `bound`
    /// is clamped to the column count, as in
    /// [`PackedRows::for_each_pair_in`].
    pub fn for_each_tile(&self, bound: usize, mut visit: impl FnMut(&Tile<'_>)) {
        let bound = bound.min(self.matrix.cols());
        for s in 0..self.n_shards() {
            let a = self.build_shard(s);
            visit(&Tile {
                a: &a,
                b: None,
                bound,
            });
            for t in (s + 1)..self.n_shards() {
                let first = self.plan.shard_rows(t)[0] as usize;
                if self.matrix.row_norm(first) > a.rows.max_norm() + bound {
                    break;
                }
                let b = self.build_shard(t);
                visit(&Tile {
                    a: &a,
                    b: Some(&b),
                    bound,
                });
            }
        }
    }

    /// Every unordered pair `(i, j)`, `i < j`, with
    /// `Hamming(i, j) ≤ bound`, plus the distance — ascending by `i`
    /// then `j`: the tiles' pairs collected and sorted, bit-identical to
    /// [`PackedRows::pairs_within`] over the same matrix at every thread
    /// count and shard count.
    pub fn pairs_within(&self, bound: usize) -> Vec<(usize, usize, usize)> {
        let mut pairs = Vec::new();
        self.for_each_tile(bound, |tile| pairs.extend(tile.pairs(self.threads)));
        pairs.sort_unstable();
        pairs
    }
}

/// One tile of the distance plane: a shard's self pass, or the cross
/// pass between a shard and a later in-band shard (see
/// [`PackedShards::for_each_tile`]). Its pairs are walked from the rows
/// of its first shard, so a caller splits `0..rows()` into ranges and
/// folds each on a worker of its own.
pub struct Tile<'a> {
    a: &'a ShardBlock<'a>,
    b: Option<&'a ShardBlock<'a>>,
    bound: usize,
}

impl Tile<'_> {
    /// Number of rows the tile's pairs are walked from.
    pub fn rows(&self) -> usize {
        self.a.rows.rows()
    }

    /// Visits every pair of the tile walked from a row in `range`:
    /// `f(i, j, d)` in global row ids with `i < j` and
    /// `d = Hamming(i, j) ≤ bound`. A self pass is
    /// [`PackedRows::for_each_pair_in`] over the shard; a cross pass
    /// walks each row's norm band in the later shard's buckets. The
    /// order depends only on the plan, never on the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past `rows()`.
    pub fn for_each_pair_in(&self, range: Range<usize>, mut f: impl FnMut(usize, usize, usize)) {
        let (a, bound) = (self.a, self.bound);
        let Some(b) = self.b else {
            a.rows.for_each_pair_in(range, bound, |i, j, d| {
                let (gi, gj) = (a.global[i] as usize, a.global[j] as usize);
                f(gi.min(gj), gi.max(gj), d);
            });
            return;
        };
        for i in range {
            let norm = a.rows.row_norm(i);
            let gi = a.global[i] as usize;
            let hi = (norm + bound).min(b.rows.max_norm());
            for band in norm.saturating_sub(bound)..=hi {
                for &j in b.rows.rows_with_norm(band) {
                    if let Some(d) = a.rows.bounded_hamming_cross(i, &b.rows, j as usize, bound) {
                        let gj = b.global[j as usize] as usize;
                        f(gi.min(gj), gi.max(gj), d);
                    }
                }
            }
        }
    }

    /// The tile's pairs in visit order, each row range of `0..rows()`
    /// collected on a worker of its own (of `threads`) and joined in
    /// range order.
    pub fn pairs(&self, threads: usize) -> Vec<(usize, usize, usize)> {
        parallel::par_map_rows(self.rows(), threads, |range| {
            let mut out = Vec::new();
            self.for_each_pair_in(range, |i, j, d| out.push((i, j, d)));
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;

    /// 10 rows over 70 columns (not a multiple of 64) with empty rows,
    /// duplicates and near-duplicates spread across norms.
    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows_of_indices(
            10,
            70,
            &[
                vec![0, 1, 65],
                vec![],
                vec![0, 1, 65],
                vec![0, 1, 65, 69],
                (0..70).step_by(2).collect(),
                vec![7],
                vec![],
                (0..40).collect(),
                (0..40).map(|c| c + 1).collect(),
                vec![7, 8],
            ],
        )
        .unwrap()
    }

    #[test]
    fn plan_is_norm_sorted_and_budget_bounded() {
        let m = sample();
        let norms: Vec<u32> = (0..m.n_rows()).map(|i| m.row_norm(i) as u32).collect();
        let plan = ShardPlan::new(&norms, m.n_cols(), m.nnz(), 200);
        assert!(plan.n_shards() >= 3, "tiny budget must force shards");
        let mut seen = Vec::new();
        let mut last_norm = 0usize;
        for s in 0..plan.n_shards() {
            for &r in plan.shard_rows(s) {
                let nm = norms[r as usize] as usize;
                assert!(nm >= last_norm, "plan must ascend in norm");
                last_norm = nm;
                seen.push(r as usize);
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..m.n_rows()).collect::<Vec<_>>());
        // Unbounded budget: one shard.
        assert_eq!(ShardPlan::new(&norms, m.n_cols(), m.nnz(), 0).n_shards(), 1);
    }

    #[test]
    fn sharded_results_match_flat_engine_at_every_thread_count() {
        // The sample packs; its rows spread over 10,000 columns stay
        // sparse, so the cross passes run the sparse merge kernel too.
        let narrow = sample();
        let spread: Vec<Vec<usize>> = (0..narrow.n_rows())
            .map(|i| narrow.row_indices(i).iter().map(|&c| c * 137).collect())
            .collect();
        let wide = CsrMatrix::from_rows_of_indices(spread.len(), 10_000, &spread).unwrap();
        assert!(!PackedRows::from_matrix(&wide, 1).is_packed());
        for m in [narrow, wide] {
            for bound in [0usize, 1, 3, 40] {
                let expected = PackedRows::from_matrix(&m, 1).pairs_within(bound, 1);
                for budget in [0usize, 200, 400, 5_000] {
                    for threads in [1usize, 2, 4, 8] {
                        let sharded = PackedShards::new(&m, budget, threads);
                        assert_eq!(
                            sharded.pairs_within(bound),
                            expected,
                            "bound={bound} budget={budget} threads={threads} shards={}",
                            sharded.n_shards()
                        );
                    }
                }
            }
        }
    }

    /// A one-shard plan (budget 0, or one every row fits) walks the rows
    /// in the caller's order: its one tile reports the flat engine's
    /// pairs over the same ranges, in the same order. A norm-ordered
    /// single block was measured against it on the realorg-shaped small
    /// orgs (2-core x86-64): the walk itself ran about 5 % faster, but
    /// the block scrambled the roughly 120k T5 pairs of each user side,
    /// almost all disjoint empty-vs-norm-1 pairs, so sorting them in
    /// `finalize_pairs` took 7× longer and walk plus split took 41 %
    /// longer (0.072 → 0.101 s over the three orgs' six sides, slower in
    /// 30 of 30 alternating reps).
    #[test]
    fn one_shard_plan_walks_rows_in_caller_order() {
        let m = sample();
        for budget in [0usize, 1 << 20] {
            for threads in [1usize, 2, 4] {
                let shards = PackedShards::new(&m, budget, threads);
                assert_eq!(shards.n_shards(), 1, "budget={budget}");
                let flat = PackedRows::from_matrix(&m, threads);
                for bound in [0usize, 1, 3, 70] {
                    let mut expected = Vec::new();
                    for range in parallel::split_ranges(m.n_rows(), threads) {
                        flat.for_each_pair_in(range, bound, |i, j, d| expected.push((i, j, d)));
                    }
                    let (mut tiles, mut walked) = (0, Vec::new());
                    shards.for_each_tile(bound, |tile| {
                        tiles += 1;
                        for range in parallel::split_ranges(tile.rows(), threads) {
                            tile.for_each_pair_in(range, |i, j, d| walked.push((i, j, d)));
                        }
                    });
                    assert_eq!(tiles, 1);
                    assert_eq!(
                        walked, expected,
                        "budget={budget} threads={threads} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn subset_view_delegates_in_listed_order() {
        let m = sample();
        let rows = [4u32, 0, 1];
        let v = RowSubsetView::new(&m, &rows);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 70);
        assert_eq!(v.row_norm(0), m.row_norm(4));
        assert_eq!(v.row_indices(1), m.row_indices(0));
        assert_eq!(v.row_hamming(1, 2), m.row_hamming(0, 1));
        assert_eq!(v.row_dot(0, 1), m.row_dot(4, 0));
        assert_eq!(v.row_signature(2), m.row_signature(1));
        assert_eq!(v.nnz(), m.row_norm(4) + m.row_norm(0) + m.row_norm(1));
        let sums = v.col_sums();
        assert_eq!(sums.iter().sum::<usize>(), v.nnz());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subset_view_rejects_out_of_range_rows() {
        let m = sample();
        RowSubsetView::new(&m, &[99]);
    }

    #[test]
    fn empty_matrix_is_a_single_trivial_shard() {
        let m = CsrMatrix::zeros(0, 5);
        let sharded = PackedShards::new(&m, 64, 2);
        assert_eq!(sharded.n_shards(), 1);
        assert!(sharded.pairs_within(1).is_empty());
    }
}
