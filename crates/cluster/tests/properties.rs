//! Property tests for the clustering substrate: DBSCAN semantics against
//! first principles and index soundness (HNSW, MinHash) on arbitrary
//! binary-row datasets.

use proptest::collection::vec;
use proptest::prelude::*;

use rolediet_cluster::dbscan::{Dbscan, DbscanParams, NOISE};
use rolediet_cluster::hnsw::{Hnsw, HnswParams};
use rolediet_cluster::metric::{BinaryRows, PackedPointSet, PointSet};
use rolediet_cluster::minhash::{MinHashLsh, MinHashLshParams};
use rolediet_cluster::neighbors::{all_pairs_within, range_query};
use rolediet_matrix::CsrMatrix;

fn dataset() -> impl Strategy<Value = (usize, usize, Vec<Vec<usize>>)> {
    (2usize..28, 2usize..18).prop_flat_map(|(rows, cols)| {
        vec(vec(0..cols, 0..=5), rows).prop_map(move |data| (rows, cols, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[allow(clippy::needless_range_loop)] // p indexes points and labels in parallel
    fn dbscan_labels_satisfy_first_principles(
        (rows, cols, data) in dataset(),
        eps in 0usize..4,
        min_pts in 2usize..4,
    ) {
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let pts = BinaryRows::new(&m);
        let eps = eps as u32;
        let labels = Dbscan::new(DbscanParams { eps, min_pts }).fit(&pts);
        let l = labels.labels();
        // 1. A core point is never noise.
        for p in 0..rows {
            if range_query(&pts, p, eps).len() >= min_pts {
                prop_assert_ne!(l[p], NOISE, "core point {} labelled noise", p);
            }
        }
        // 2. Two core points within eps share a cluster.
        for i in 0..rows {
            for j in (i + 1)..rows {
                let core_i = range_query(&pts, i, eps).len() >= min_pts;
                let core_j = range_query(&pts, j, eps).len() >= min_pts;
                if core_i && core_j && pts.distance(i, j) <= eps {
                    prop_assert_eq!(l[i], l[j], "core pair ({}, {}) split", i, j);
                }
            }
        }
        // 3. A noise point has no core point within eps.
        for p in 0..rows {
            if l[p] == NOISE {
                for q in range_query(&pts, p, eps) {
                    prop_assert!(
                        range_query(&pts, q, eps).len() < min_pts,
                        "noise point {} adjacent to core {}", p, q
                    );
                }
            }
        }
        // 4. Cluster ids are dense 0..n_clusters.
        let max = l.iter().copied().max().unwrap_or(-1);
        prop_assert_eq!(labels.n_clusters() as i64, max + 1);
    }

    #[test]
    fn hnsw_results_are_sound((rows, cols, data) in dataset()) {
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let pts = BinaryRows::new(&m);
        let idx = Hnsw::build(&pts, HnswParams::default());
        for q in 0..rows {
            let hits = idx.knn_by_index(&pts, q, 5, 32);
            // A 0-distance hit is always first (the query itself, or an
            // exact duplicate of it winning the index tie-break), and the
            // query is among the results unless crowded out by >= 5 exact
            // duplicates.
            prop_assert_eq!(hits[0].1, 0);
            let self_found = hits.iter().any(|&(i, _)| i == q);
            let duplicates = (0..rows).filter(|&i| pts.distance(q, i) == 0).count();
            prop_assert!(
                self_found || duplicates > 5,
                "query {} missing from its own results", q
            );
            // Reported distances are true distances, sorted ascending.
            for w in hits.windows(2) {
                prop_assert!(w[0].1 <= w[1].1);
            }
            for &(i, d) in &hits {
                prop_assert_eq!(d, pts.distance(q, i));
            }
            // No duplicates.
            let mut ids: Vec<usize> = hits.iter().map(|&(i, _)| i).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), hits.len());
        }
    }

    #[test]
    fn hnsw_batch_build_matches_sequential_oracle((rows, cols, mut data) in dataset()) {
        // The tentpole contract: the two-phase batched build is a pure
        // function of (points, params) — bit-identical links/levels/entry
        // to the sequential insert at every thread count and generation
        // size, including the paper's hot shapes (empty rows, exact
        // duplicates).
        data.push(Vec::new());
        data.push(data[0].clone());
        let m = CsrMatrix::from_rows_of_indices(rows + 2, cols, &data).unwrap();
        let pts = PackedPointSet::from_matrix(&m, 2);
        let oracle = Hnsw::build(&pts, HnswParams::default());
        for threads in [1usize, 2, 4, 8] {
            for batch in [1usize, 7, 64] {
                let got = Hnsw::build_batched(&pts, HnswParams::default(), batch, threads);
                prop_assert_eq!(
                    &got, &oracle,
                    "batched build diverged: threads={} batch={}", threads, batch
                );
            }
        }
        // The packed adapter is metric-identical to the scalar rows, so
        // the oracle built on BinaryRows matches too.
        let scalar = BinaryRows::new(&m);
        prop_assert_eq!(&Hnsw::build(&scalar, HnswParams::default()), &oracle);
    }

    #[test]
    fn minhash_covers_every_identical_pair((rows, cols, data) in dataset()) {
        let m = CsrMatrix::from_rows_of_indices(rows, cols, &data).unwrap();
        let sets: Vec<Vec<u32>> = (0..rows)
            .map(|r| {
                rolediet_matrix::RowMatrix::row_indices(&m, r)
                    .into_iter()
                    .map(|c| c as u32)
                    .collect()
            })
            .collect();
        let lsh = MinHashLsh::build(&sets, MinHashLshParams::default());
        let candidates: std::collections::HashSet<(usize, usize)> =
            lsh.candidate_pairs().into_iter().collect();
        let identical = all_pairs_within(&BinaryRows::new(&m), 0);
        for (i, j) in identical {
            prop_assert!(
                candidates.contains(&(i, j)),
                "identical pair ({}, {}) missed by LSH", i, j
            );
        }
    }

    #[test]
    fn minhash_parallel_matches_sequential((rows, cols, mut data) in dataset()) {
        // Empty and duplicate sets are the degenerate shapes: an empty
        // set sketches to the sentinel signature, duplicates collide in
        // every band.
        data.push(Vec::new());
        data.push(data[0].clone());
        let sets: Vec<Vec<u32>> = data
            .iter()
            .map(|row| {
                let mut s: Vec<u32> = row.iter().map(|&c| c as u32).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let _ = (rows, cols);
        let seq = MinHashLsh::build(&sets, MinHashLshParams::default());
        let seq_pairs = seq.candidate_pairs();
        for threads in [1usize, 2, 4, 8] {
            let par = MinHashLsh::build_with(&sets, MinHashLshParams::default(), threads);
            prop_assert_eq!(par.candidate_pairs_with(threads), seq_pairs.clone(), "threads={}", threads);
            for i in 0..sets.len() {
                for j in 0..sets.len() {
                    prop_assert_eq!(
                        par.estimate_jaccard(i, j),
                        seq.estimate_jaccard(i, j),
                        "signatures diverged at threads={}", threads
                    );
                }
            }
        }
    }

    #[test]
    fn union_find_invariants_survive_random_union_sequences(
        n in 1usize..40,
        edges in vec((0usize..40, 0usize..40), 0..80),
    ) {
        use rolediet_cluster::UnionFind;
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        // Sequential build: validate after every structural change.
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        prop_assert_eq!(uf.validate(), Ok(()));
        // Range-joined build (the parallel kernel's shape) must reach an
        // equally well-formed forest with the same groups.
        for threads in [2usize, 4] {
            let forests =
                rolediet_matrix::parallel::par_map_ranges(edges.len(), threads, |range| {
                    let mut local = UnionFind::new(n);
                    for &(a, b) in &edges[range] {
                        local.union(a, b);
                    }
                    local
                });
            let mut joined = UnionFind::new(n);
            for f in forests {
                prop_assert_eq!(f.validate(), Ok(()));
                joined.merge_from(&f);
            }
            prop_assert_eq!(joined.validate(), Ok(()));
            prop_assert_eq!(
                joined.groups_min_size(1),
                uf.groups_min_size(1),
                "threads={}", threads
            );
        }
    }
}
