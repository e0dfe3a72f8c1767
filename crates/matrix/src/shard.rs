//! Sharded, memory-budgeted driver for the bounded-distance engine.
//!
//! [`PackedRows`] materializes the whole packed (or
//! sparse-copied) matrix plus its norm buckets in RAM — fine at realorg
//! scale (50 300 × 89 900), hopeless at the million-user scale the
//! roadmap targets. [`PackedShards`] runs the *same* exact T4/T5
//! distance plane under an explicit `memory_budget_bytes`:
//!
//! 1. **Deterministic shard plan.** Rows are counting-sorted by norm
//!    (stable, so ascending row index within equal norms) and cut into
//!    norm-contiguous shard blocks whose estimated resident footprint
//!    fits half the budget each (two shards are resident during a cross
//!    pass). The plan is a pure function of the input's norms, width,
//!    density and the budget — never of the thread count — so shard
//!    boundaries, and therefore every downstream result, are identical
//!    on any machine at any parallelism.
//! 2. **Tile passes.** `pairs_within` streams shard×shard tile passes:
//!    each shard is built on demand (through [`RowSubsetView`], a
//!    reordering row view of the backing matrix), paired against itself
//!    with the flat engine's pair walk, then against every later
//!    shard whose norm range overlaps its own band — so at most two
//!    shard blocks plus the output are resident at once, and
//!    out-of-band shard pairs are skipped without being built.
//! 3. **Norm-sorted block layout.** Because a shard's rows are stored
//!    in norm order, a band walk inside or across shards touches rows
//!    (and their packed words) sequentially in memory. The flat engine
//!    keeps caller row order instead, so its pairs need no mapping back.
//!    Cross-shard candidates reuse the shards' counting-sorted norm
//!    buckets directly, and distances go through
//!    [`PackedRows::bounded_hamming_cross`] so the early-exit kernels
//!    are shared with the flat engine.
//!
//! Every pair is found in exactly one pass (its shard pair), so a final
//! deterministic sort by `(i, j)` reproduces the flat engine's
//! lexicographic output bit-for-bit. With a budget of `0` (unbounded) or
//! a plan of one shard, the engine delegates to [`PackedRows`] outright.

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
    /// All row indices, counting-sorted by norm (stable: ascending row
    /// index within equal norms).
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
        if rows == 0 {
            bounds = vec![0, 0];
        }
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

    /// Global row indices of shard `s`, in norm order.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards()`.
    pub fn shard_rows(&self, s: usize) -> &[u32] {
        &self.order[self.bounds[s]..self.bounds[s + 1]]
    }

    /// Whether the global density key chose the packed representation.
    pub fn is_packed(&self) -> bool {
        self.packed
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

/// One resident shard block: its engine plus the global indices (in
/// norm order) its local rows map back to.
struct ShardBlock<'p> {
    rows: PackedRows,
    global: &'p [u32],
}

/// The sharded, memory-budgeted counterpart of [`PackedRows`]: the same
/// exact bounded-distance plane (`pairs_within`), bit-identical at every
/// thread count *and* shard count, with at most two shard blocks
/// resident at once. See the [module docs](self).
pub struct PackedShards<'m, M: RowMatrix + Sync + ?Sized> {
    matrix: &'m M,
    plan: ShardPlan,
    norms: Vec<u32>,
    threads: usize,
}

impl<'m, M: RowMatrix + Sync + ?Sized> PackedShards<'m, M> {
    /// Plans shards for `matrix` under `memory_budget_bytes` (`0` =
    /// unbounded). Row norms are computed once on `threads` workers; no
    /// shard is built until a query runs.
    pub fn new(matrix: &'m M, memory_budget_bytes: usize, threads: usize) -> Self {
        let norms: Vec<u32> = parallel::par_map_rows(matrix.rows(), threads, |range| {
            range.map(|i| matrix.row_norm(i) as u32).collect()
        });
        let nnz = norms.iter().map(|&n| n as usize).sum();
        let plan = ShardPlan::new(&norms, matrix.cols(), nnz, memory_budget_bytes);
        PackedShards {
            matrix,
            plan,
            norms,
            threads,
        }
    }

    /// Smallest row norm in shard `s` (rows are norm-sorted, so it is
    /// the first row's).
    fn shard_min_norm(&self, s: usize) -> usize {
        self.norms[self.plan.shard_rows(s)[0] as usize] as usize
    }

    /// Largest row norm in shard `s`.
    fn shard_max_norm(&self, s: usize) -> usize {
        let rows = self.plan.shard_rows(s);
        self.norms[rows[rows.len() - 1] as usize] as usize
    }

    /// Number of rows in the backing matrix.
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of shard blocks in the plan.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// The shard plan (deterministic — see [`ShardPlan`]).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
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

    /// Every unordered pair `(i, j)`, `i < j`, with
    /// `Hamming(i, j) ≤ bound`, plus the distance — ascending by `i`
    /// then `j`: bit-identical to
    /// [`PackedRows::pairs_within`] over the same matrix, at every
    /// thread count and shard count. `bound` is clamped to the column
    /// count, as in [`PackedRows::for_each_pair_in`].
    pub fn pairs_within(&self, bound: usize) -> Vec<(usize, usize, usize)> {
        let bound = bound.min(self.matrix.cols());
        if self.n_shards() <= 1 {
            return PackedRows::from_matrix(self.matrix, self.threads)
                .pairs_within(bound, self.threads);
        }
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
        for s in 0..self.n_shards() {
            let a = self.build_shard(s);
            // Self pass: the flat pair walk, mapped to global indices.
            pairs.extend(parallel::par_map_rows(
                a.rows.rows(),
                self.threads,
                |range| {
                    let mut out = Vec::new();
                    a.rows.for_each_pair_in(range, bound, |i, j, d| {
                        let (gi, gj) = (a.global[i] as usize, a.global[j] as usize);
                        out.push((gi.min(gj), gi.max(gj), d));
                    });
                    out
                },
            ));
            // Cross passes against every later shard whose norm range
            // overlaps this shard's band. Shards ascend in norm, so the
            // first out-of-band shard ends the scan — without being
            // built (the check reads the plan, not shard data).
            let max_norm_s = self.shard_max_norm(s);
            for t in (s + 1)..self.n_shards() {
                if self.shard_min_norm(t) > max_norm_s + bound {
                    break;
                }
                let b = self.build_shard(t);
                pairs.extend(parallel::par_map_rows(
                    a.rows.rows(),
                    self.threads,
                    |range| {
                        let mut out = Vec::new();
                        for i in range {
                            let norm = a.rows.row_norm(i);
                            let gi = a.global[i] as usize;
                            let lo = norm.saturating_sub(bound);
                            let hi = (norm + bound).min(b.rows.max_norm());
                            for band in lo..=hi {
                                for &j in b.rows.rows_with_norm(band) {
                                    if let Some(d) =
                                        a.rows.bounded_hamming_cross(i, &b.rows, j as usize, bound)
                                    {
                                        let gj = b.global[j as usize] as usize;
                                        out.push((gi.min(gj), gi.max(gj), d));
                                    }
                                }
                            }
                        }
                        out
                    },
                ));
            }
        }
        // Each pair was found in exactly one pass; the canonical sort
        // reproduces the flat engine's lexicographic order.
        pairs.sort_unstable();
        pairs
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
        let m = sample();
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
