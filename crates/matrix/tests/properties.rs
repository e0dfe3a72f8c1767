//! Property-based tests for the matrix substrate.
//!
//! These pin the algebraic identities the detection algorithms rely on:
//! Hamming metric axioms, the `|Rⁱ| + |Rʲ| − 2gⁱʲ = Hamming(i,j)` identity
//! at the heart of the custom algorithm, the CSR row kernels against the
//! word-at-a-time `BitVec` oracle, and signature soundness.

use proptest::collection::vec;
use proptest::prelude::*;

use rolediet_matrix::ops::{for_each_cooccurring_pair, gram_matrix};
use rolediet_matrix::{hash_indices, BitVec, CsrMatrix, RowMatrix, SignatureIndex};

/// Strategy: a row as a set of column indices below `cols`.
fn row_strategy(cols: usize) -> impl Strategy<Value = Vec<usize>> {
    vec(0..cols, 0..=cols.min(24))
}

/// Strategy: (rows, cols, row index lists).
fn matrix_strategy() -> impl Strategy<Value = (usize, usize, Vec<Vec<usize>>)> {
    (1usize..12, 1usize..150).prop_flat_map(|(rows, cols)| {
        vec(row_strategy(cols), rows).prop_map(move |data| (rows, cols, data))
    })
}

proptest! {
    #[test]
    fn bitvec_roundtrip_through_indices((_, cols, data) in matrix_strategy()) {
        for row in &data {
            let v = BitVec::from_indices(cols, row).unwrap();
            let mut sorted = row.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(v.to_indices(), sorted);
            prop_assert_eq!(v.count_ones(), v.to_indices().len());
        }
    }

    #[test]
    fn hamming_metric_axioms(
        a in row_strategy(100),
        b in row_strategy(100),
        c in row_strategy(100),
    ) {
        let va = BitVec::from_indices(100, &a).unwrap();
        let vb = BitVec::from_indices(100, &b).unwrap();
        let vc = BitVec::from_indices(100, &c).unwrap();
        let dab = va.hamming(&vb).unwrap();
        let dba = vb.hamming(&va).unwrap();
        let dac = va.hamming(&vc).unwrap();
        let dcb = vc.hamming(&vb).unwrap();
        // symmetry
        prop_assert_eq!(dab, dba);
        // identity of indiscernibles
        prop_assert_eq!(va.hamming(&va).unwrap(), 0);
        prop_assert_eq!(dab == 0, va == vb);
        // triangle inequality
        prop_assert!(dab <= dac + dcb);
    }

    #[test]
    fn norm_dot_hamming_identity(
        a in row_strategy(100),
        b in row_strategy(100),
    ) {
        // The identity the custom algorithm is built on (Section III-C):
        // Hamming(i,j) = |Ri| + |Rj| - 2 g_ij.
        let va = BitVec::from_indices(100, &a).unwrap();
        let vb = BitVec::from_indices(100, &b).unwrap();
        let g = va.intersection_count(&vb).unwrap();
        prop_assert_eq!(
            va.hamming(&vb).unwrap(),
            va.count_ones() + vb.count_ones() - 2 * g
        );
        // Same-users indicator: |Ri| = g = |Rj|  <=>  rows equal.
        let same = va.count_ones() == g && vb.count_ones() == g;
        prop_assert_eq!(same, va == vb);
    }

    #[test]
    fn csr_row_kernels_match_bitvec_oracle((rows, cols, mut data) in matrix_strategy()) {
        // A duplicate of row 0 (listed reversed and repeated, so the
        // builder's sort and dedup are on the path) and an empty row.
        data.push(data[0].iter().rev().chain(&data[0]).copied().collect());
        data.push(Vec::new());
        let rows = rows + 2;
        let s = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        prop_assert_eq!(s.validate(), Ok(()));
        let oracle: Vec<BitVec> = data
            .iter()
            .map(|row| BitVec::from_indices(cols, row).unwrap())
            .collect();
        let mut col_sums = vec![0usize; cols];
        for v in &oracle {
            for c in v.iter_ones() {
                col_sums[c] += 1;
            }
        }
        prop_assert_eq!(s.col_sums(), col_sums);
        prop_assert_eq!(s.nnz(), oracle.iter().map(BitVec::count_ones).sum::<usize>());
        for (i, vi) in oracle.iter().enumerate() {
            prop_assert_eq!(s.row_norm(i), vi.count_ones());
            prop_assert_eq!(s.row_indices(i), vi.to_indices());
            let ones: Vec<u32> = vi.iter_ones().map(|c| c as u32).collect();
            prop_assert_eq!(s.row_signature(i), hash_indices(&ones));
            for (j, vj) in oracle.iter().enumerate() {
                prop_assert_eq!(s.row_hamming(i, j), vi.hamming(vj).unwrap());
                prop_assert_eq!(s.row_dot(i, j), vi.intersection_count(vj).unwrap());
                prop_assert_eq!(s.rows_equal(i, j), vi == vj);
            }
        }
    }

    #[test]
    fn transpose_involution_and_sums((rows, cols, data) in matrix_strategy()) {
        let s = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let t = s.transpose();
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(t.transpose(), s.clone());
        prop_assert_eq!(t.row_sums(), s.col_sums());
        prop_assert_eq!(t.col_sums(), s.row_sums());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i/j are matrix coordinates
    fn streamed_pairs_match_gram((rows, cols, data) in matrix_strategy()) {
        let s = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let t = s.transpose();
        let gram = gram_matrix(&s);
        let mut seen = std::collections::HashMap::new();
        for_each_cooccurring_pair(&s, &t, |i, j, g| {
            assert!(i < j);
            seen.insert((i, j), g);
        });
        for i in 0..rows {
            prop_assert_eq!(gram[i][i], s.row_norm(i));
            for j in (i + 1)..rows {
                prop_assert_eq!(seen.get(&(i, j)).copied().unwrap_or(0), gram[i][j]);
            }
        }
    }

    #[test]
    fn signature_groups_are_exactly_equal_rows((rows, cols, data) in matrix_strategy()) {
        let s = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let groups = SignatureIndex::build(&s).groups_verified(&s);
        // Every reported group member pair is bit-equal.
        for g in &groups {
            prop_assert!(g.len() >= 2);
            for w in g.windows(2) {
                prop_assert!(s.rows_equal(w[0], w[1]));
            }
        }
        // Every equal pair is covered by some group.
        let mut group_of = vec![usize::MAX; rows];
        for (gi, g) in groups.iter().enumerate() {
            for &r in g {
                group_of[r] = gi;
            }
        }
        for i in 0..rows {
            for j in (i + 1)..rows {
                if s.rows_equal(i, j) {
                    prop_assert_eq!(group_of[i], group_of[j]);
                    prop_assert_ne!(group_of[i], usize::MAX);
                }
            }
        }
    }

    #[test]
    fn two_pass_build_matches_reference_for_every_thread_count(
        (rows, cols, mut data) in matrix_strategy(),
    ) {
        // Include an empty row and a duplicate of row 0 so every case
        // covers the degenerate shapes.
        data.push(Vec::new());
        data.push(data[0].clone());
        let rows = rows + 2;
        let reference = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        // The two-pass builder requires strictly increasing columns per
        // row — feed it the normalized rows of the reference.
        for threads in [1usize, 2, 4, 8] {
            let built = CsrMatrix::from_row_iter_two_pass(rows, cols, threads, |i| {
                reference.row(i).iter().copied()
            });
            prop_assert_eq!(built.validate(), Ok(()));
            prop_assert_eq!(&built, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn packed_bounded_hamming_agrees_with_row_hamming(
        (rows, cols, mut data) in matrix_strategy(),
        bound in 0usize..8,
    ) {
        // Append an empty row and a duplicate of row 0 so every case
        // covers the engine's degenerate shapes; `matrix_strategy`'s
        // 1..150 column range covers widths not divisible by 64.
        data.push(Vec::new());
        data.push(data[0].clone());
        let rows = rows + 2;
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        for packed in [
            rolediet_matrix::PackedRows::packed_from_matrix(&m, 3),
            rolediet_matrix::PackedRows::sparse_from_matrix(&m, 3),
        ] {
            // The kernel agrees with the scalar distance, including the
            // `None` <=> distance > bound direction.
            for i in 0..rows {
                prop_assert_eq!(packed.row_norm(i), m.row_norm(i));
                for j in 0..rows {
                    let d = m.row_hamming(i, j);
                    let expected = if d <= bound { Some(d) } else { None };
                    prop_assert_eq!(
                        packed.bounded_hamming(i, j, bound),
                        expected,
                        "i={} j={} bound={} packed={}", i, j, bound, packed.is_packed()
                    );
                }
            }
            // The pair walk, range by range, and the sorted pair list
            // match brute force at every thread count.
            let mut brute_pairs = Vec::new();
            for i in 0..rows {
                for j in (i + 1)..rows {
                    let d = m.row_hamming(i, j);
                    if d <= bound {
                        brute_pairs.push((i, j, d));
                    }
                }
            }
            for threads in [1usize, 2, 4, 8] {
                let mut walked = Vec::new();
                for range in rolediet_matrix::parallel::split_ranges(rows, threads) {
                    let rows_of_range = range.clone();
                    packed.for_each_pair_in(range, bound, |i, j, d| {
                        assert!(rows_of_range.contains(&i) && j > i, "({i}, {j}) off its range");
                        walked.push((i, j, d));
                    });
                }
                walked.sort_unstable();
                prop_assert_eq!(&walked, &brute_pairs, "walk threads={}", threads);
                prop_assert_eq!(
                    &packed.pairs_within(bound, threads),
                    &brute_pairs,
                    "pairs threads={}", threads
                );
            }
        }
    }

    #[test]
    fn sharded_engine_matches_flat_engine_under_tiny_budgets(
        (rows, cols, mut data) in matrix_strategy(),
        bound in 0usize..6,
    ) {
        // Degenerate shapes on purpose: an empty row, a duplicate of
        // row 0, and `matrix_strategy`'s 1..150 column range covering
        // widths % 64 != 0.
        data.push(Vec::new());
        data.push(data[0].clone());
        let rows = rows + 2;
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let expected_pairs = rolediet_matrix::PackedRows::from_matrix(&m, 1).pairs_within(bound, 1);
        // A per-row budget so tiny the plan is forced to cut one shard
        // per row when there are 3+ rows — the most adversarial
        // shard count — plus a mid-size budget and the unbounded plan.
        for budget in [1usize, 600, 0] {
            for threads in [1usize, 2, 4, 8] {
                let sharded = rolediet_matrix::PackedShards::new(&m, budget, threads);
                if budget == 1 && rows >= 3 {
                    prop_assert!(
                        sharded.n_shards() >= 3,
                        "budget=1 rows={} must force >=3 shards, got {}",
                        rows,
                        sharded.n_shards()
                    );
                }
                prop_assert_eq!(
                    &sharded.pairs_within(bound),
                    &expected_pairs,
                    "pairs budget={} threads={} shards={}",
                    budget, threads, sharded.n_shards()
                );
            }
        }
    }

    #[test]
    fn tile_visitor_visits_each_pair_within_the_bound_once(
        (rows, cols, mut data) in matrix_strategy(),
        bound in 0usize..6,
        threads in 1usize..=8,
    ) {
        // The pins' degenerate shapes: an empty row and a duplicate of
        // row 0. The strategy's rows pack (at most 150 columns), so a
        // 1-byte budget plans one shard per row, and 3+ rows make 3+
        // shards, self passes and cross passes alike.
        data.push(Vec::new());
        data.push(data[0].clone());
        let rows = rows + 2;
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let mut brute = Vec::new();
        for i in 0..rows {
            for j in (i + 1)..rows {
                let d = m.row_hamming(i, j);
                if d <= bound {
                    brute.push((i, j, d));
                }
            }
        }
        let sharded = rolediet_matrix::PackedShards::new(&m, 1, threads);
        prop_assert!(sharded.n_shards() >= 3, "{} shards", sharded.n_shards());
        let mut visited = Vec::new();
        sharded.for_each_tile(bound, |tile| {
            for range in rolediet_matrix::parallel::split_ranges(tile.rows(), threads) {
                tile.for_each_pair_in(range, |i, j, d| visited.push((i, j, d)));
            }
        });
        prop_assert!(visited.iter().all(|&(i, j, _)| i < j), "{:?}", visited);
        let count = visited.len();
        visited.sort_unstable();
        visited.dedup_by_key(|&mut (i, j, _)| (i, j));
        prop_assert_eq!(visited.len(), count, "a pair was visited twice");
        prop_assert_eq!(&visited, &brute, "threads={}", threads);
    }

    #[test]
    fn subset_difference_consistency(
        a in row_strategy(60),
        b in row_strategy(60),
    ) {
        let va = BitVec::from_indices(60, &a).unwrap();
        let vb = BitVec::from_indices(60, &b).unwrap();
        let mut diff = va.clone();
        diff.difference_with(&vb).unwrap();
        prop_assert!(diff.is_subset_of(&va).unwrap());
        prop_assert_eq!(diff.intersection_count(&vb).unwrap(), 0);
        prop_assert_eq!(
            diff.count_ones(),
            va.count_ones() - va.intersection_count(&vb).unwrap()
        );
    }
}
