//! The paper's synthetic RUAM/RPAM generator (Section IV-A).
//!
//! > "the generator depends on several key parameters, including the
//! > number of roles (rows in the matrix), the number of users (columns in
//! > the matrix), the proportion of the number of roles in clusters
//! > relative to the total number of roles, and the maximum number of
//! > identical roles within a cluster."
//!
//! The evaluation fixes the cluster proportion to 0.2 and the maximum
//! cluster size to 10; those are the defaults here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rolediet_matrix::{CsrMatrix, SignatureIndex};

/// Configuration of the synthetic matrix generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixGenConfig {
    /// Number of rows (roles).
    pub roles: usize,
    /// Number of columns (users for RUAM, permissions for RPAM).
    pub users: usize,
    /// Fraction of rows that belong to planted duplicate clusters
    /// (paper: 0.2).
    pub cluster_fraction: f64,
    /// Maximum number of identical rows within one planted cluster
    /// (paper: 10). Cluster sizes are drawn uniformly from `2..=max`.
    pub max_cluster_size: usize,
    /// Per-cell probability of a 1 in the random row templates.
    pub density: f64,
    /// Number of members per planted cluster that are perturbed by exactly
    /// one bit flip instead of staying identical — plants "similar"
    /// (Hamming-1) pairs for the T5 experiments. `0` reproduces the
    /// paper's generator exactly; anything else needs `users > 0`.
    pub perturbed_per_cluster: usize,
    /// RNG seed; equal configs generate identical matrices.
    pub seed: u64,
}

impl MatrixGenConfig {
    /// The paper's configuration for a `roles × users` matrix:
    /// `cluster_fraction = 0.2`, `max_cluster_size = 10`.
    pub fn paper(roles: usize, users: usize, seed: u64) -> Self {
        MatrixGenConfig {
            roles,
            users,
            cluster_fraction: 0.2,
            max_cluster_size: 10,
            density: 0.05,
            perturbed_per_cluster: 0,
            seed,
        }
    }
}

impl Default for MatrixGenConfig {
    fn default() -> Self {
        MatrixGenConfig::paper(1_000, 1_000, 0)
    }
}

/// Ground truth accompanying a generated matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixGroundTruth {
    /// Row groups planted as identical (before accounting for accidental
    /// collisions between random rows), sorted by first member.
    pub planted_groups: Vec<Vec<usize>>,
    /// *Exact* duplicate groups of the final matrix, computed post-hoc by
    /// verified signature grouping — includes both planted groups and any
    /// coincidental duplicates among the random rows. This is what an
    /// exact detector must return, bit for bit.
    pub exact_duplicate_groups: Vec<Vec<usize>>,
    /// Pairs planted at Hamming distance exactly 1 (a perturbed member
    /// with its cluster template), `i < j`, sorted.
    pub planted_similar_pairs: Vec<(usize, usize)>,
}

/// A generated matrix with its ground truth and the config that made it.
#[derive(Debug, Clone)]
pub struct GeneratedMatrix {
    /// The matrix (rows = roles).
    pub matrix: CsrMatrix,
    /// Ground truth for evaluating detectors.
    pub truth: MatrixGroundTruth,
    /// The generating configuration.
    pub config: MatrixGenConfig,
}

impl GeneratedMatrix {
    /// An owned copy of [`matrix`](Self::matrix).
    pub fn sparse(&self) -> CsrMatrix {
        self.matrix.clone()
    }
}

/// Generates a matrix according to `config`.
///
/// Planted clusters are placed at random row positions (the whole row
/// order is shuffled after generation), so detectors cannot exploit
/// layout.
///
/// # Panics
///
/// Panics if `cluster_fraction` is outside `[0, 1]`, `density` outside
/// `[0, 1]`, `max_cluster_size < 2`,
/// `perturbed_per_cluster >= max_cluster_size` (a cluster must keep at
/// least one unperturbed copy of its template), or
/// `perturbed_per_cluster > 0` with `users == 0` (there is no column to
/// flip).
///
/// # Examples
///
/// ```
/// use rolediet_synth::{generate_matrix, MatrixGenConfig};
///
/// let gen = generate_matrix(MatrixGenConfig::paper(100, 50, 42));
/// assert_eq!(gen.matrix.n_rows(), 100);
/// // About 20 rows sit in duplicate clusters.
/// let planted: usize = gen.truth.planted_groups.iter().map(Vec::len).sum();
/// assert!(planted >= 14 && planted <= 20);
/// ```
pub fn generate_matrix(config: MatrixGenConfig) -> GeneratedMatrix {
    assert!(
        (0.0..=1.0).contains(&config.cluster_fraction),
        "cluster_fraction must be in [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&config.density),
        "density must be in [0, 1]"
    );
    assert!(
        config.max_cluster_size >= 2,
        "max_cluster_size must be >= 2"
    );
    assert!(
        config.perturbed_per_cluster < config.max_cluster_size,
        "perturbed_per_cluster must leave at least one identical copy"
    );
    assert!(
        config.perturbed_per_cluster == 0 || config.users > 0,
        "perturbed_per_cluster > 0 needs users > 0: a perturbed member flips one column"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.roles;
    let cols = config.users;
    let clustered_target = (n as f64 * config.cluster_fraction).floor() as usize;

    // Build rows (ascending column indices) in construction order, then
    // shuffle.
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut planted_groups_pre: Vec<Vec<usize>> = Vec::new();
    let mut planted_similar_pre: Vec<(usize, usize)> = Vec::new();
    let mut remaining = clustered_target.min(n);
    while remaining >= 2 {
        let size = rng.gen_range(2..=config.max_cluster_size).min(remaining);
        if size < 2 {
            break;
        }
        let template = random_row(&mut rng, cols, config.density);
        let perturbed = config.perturbed_per_cluster.min(size - 1);
        let mut group = Vec::with_capacity(size - perturbed);
        for k in 0..size {
            let idx = rows.len();
            if k >= size - perturbed {
                // Perturb by flipping exactly one bit of the template.
                let mut row = template.clone();
                let flip = rng.gen_range(0..cols) as u32;
                match row.binary_search(&flip) {
                    Ok(at) => {
                        row.remove(at);
                    }
                    Err(at) => row.insert(at, flip),
                }
                let anchor = group[0];
                planted_similar_pre.push((anchor, idx));
                rows.push(row);
            } else {
                group.push(idx);
                rows.push(template.clone());
            }
        }
        if group.len() >= 2 {
            planted_groups_pre.push(group);
        }
        remaining -= size;
    }
    while rows.len() < n {
        rows.push(random_row(&mut rng, cols, config.density));
    }

    // Fisher-Yates shuffle of row positions, tracked by a permutation.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    // perm[new_pos] = old_pos; we need old→new to remap ground truth.
    let mut new_pos = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        new_pos[old] = new;
    }
    let matrix =
        CsrMatrix::from_row_iter_two_pass(n, cols, 1, |new| rows[perm[new]].iter().copied());

    let mut planted_groups: Vec<Vec<usize>> = planted_groups_pre
        .into_iter()
        .map(|g| {
            let mut g: Vec<usize> = g.into_iter().map(|i| new_pos[i]).collect();
            g.sort_unstable();
            g
        })
        .collect();
    planted_groups.sort_unstable_by_key(|g| g[0]);
    let mut planted_similar_pairs: Vec<(usize, usize)> = planted_similar_pre
        .into_iter()
        .map(|(a, b)| {
            let (a, b) = (new_pos[a], new_pos[b]);
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    planted_similar_pairs.sort_unstable();

    let exact_duplicate_groups = SignatureIndex::build(&matrix).groups_verified(&matrix);

    GeneratedMatrix {
        matrix,
        truth: MatrixGroundTruth {
            planted_groups,
            exact_duplicate_groups,
            planted_similar_pairs,
        },
        config,
    }
}

/// One random row: `cols` independent Bernoulli(`density`) cells, drawn
/// in column order, as ascending column indices.
fn random_row(rng: &mut StdRng, cols: usize, density: f64) -> Vec<u32> {
    // Room for the expected count and then some, so few rows regrow.
    let mut row = Vec::with_capacity(((cols as f64 * density * 1.5) as usize + 8).min(cols));
    for c in 0..cols as u32 {
        if rng.gen_bool(density) {
            row.push(c);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolediet_matrix::RowMatrix;

    #[test]
    fn shape_and_determinism() {
        let cfg = MatrixGenConfig::paper(200, 80, 7);
        let a = generate_matrix(cfg);
        let b = generate_matrix(cfg);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.matrix.rows(), 200);
        assert_eq!(a.matrix.cols(), 80);
        let c = generate_matrix(MatrixGenConfig::paper(200, 80, 8));
        assert_ne!(a.matrix, c.matrix, "different seeds differ");
    }

    #[test]
    fn planted_rows_are_identical() {
        let gen = generate_matrix(MatrixGenConfig::paper(500, 200, 3));
        for group in &gen.truth.planted_groups {
            assert!(group.len() >= 2);
            assert!(group.len() <= 10);
            let first = group[0];
            for &m in &group[1..] {
                assert!(gen.matrix.rows_equal(first, m));
            }
        }
    }

    #[test]
    fn cluster_fraction_is_respected() {
        let gen = generate_matrix(MatrixGenConfig::paper(1_000, 100, 9));
        let planted: usize = gen.truth.planted_groups.iter().map(Vec::len).sum();
        // Target is 200; the last cluster may undershoot by at most
        // max_cluster_size - 1.
        assert!(planted <= 200);
        assert!(planted > 200 - 10, "planted {planted}");
    }

    #[test]
    fn exact_groups_cover_planted_groups() {
        let gen = generate_matrix(MatrixGenConfig::paper(300, 150, 11));
        // Every planted group must be a subset of some exact group.
        for planted in &gen.truth.planted_groups {
            let found = gen
                .truth
                .exact_duplicate_groups
                .iter()
                .any(|exact| planted.iter().all(|m| exact.contains(m)));
            assert!(found, "planted group {planted:?} not covered");
        }
    }

    #[test]
    fn perturbed_members_plant_hamming_one_pairs() {
        let cfg = MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(300, 100, 5)
        };
        let gen = generate_matrix(cfg);
        assert!(!gen.truth.planted_similar_pairs.is_empty());
        for &(a, b) in &gen.truth.planted_similar_pairs {
            assert!(a < b);
            assert_eq!(gen.matrix.row_hamming(a, b), 1, "pair ({a},{b})");
        }
    }

    #[test]
    fn zero_cluster_fraction_plants_nothing() {
        let cfg = MatrixGenConfig {
            cluster_fraction: 0.0,
            ..MatrixGenConfig::paper(100, 50, 2)
        };
        let gen = generate_matrix(cfg);
        assert!(gen.truth.planted_groups.is_empty());
        assert!(gen.truth.planted_similar_pairs.is_empty());
    }

    #[test]
    fn density_controls_norms() {
        let sparse = generate_matrix(MatrixGenConfig {
            density: 0.01,
            cluster_fraction: 0.0,
            ..MatrixGenConfig::paper(200, 500, 4)
        });
        let dense = generate_matrix(MatrixGenConfig {
            density: 0.3,
            cluster_fraction: 0.0,
            ..MatrixGenConfig::paper(200, 500, 4)
        });
        let mean = |m: &CsrMatrix| m.nnz() as f64 / 200.0;
        assert!(mean(&sparse.matrix) < 15.0);
        assert!(mean(&dense.matrix) > 100.0);
    }

    /// FNV-1a over the generated CSR rows and the ground truth.
    fn digest(gen: &GeneratedMatrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: usize| {
            for b in (x as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let m = gen.sparse();
        eat(m.n_rows());
        eat(m.n_cols());
        for i in 0..m.n_rows() {
            eat(m.row(i).len());
            m.row(i).iter().for_each(|&c| eat(c as usize));
        }
        let truth = &gen.truth;
        for groups in [&truth.planted_groups, &truth.exact_duplicate_groups] {
            eat(groups.len());
            for g in groups {
                eat(g.len());
                g.iter().for_each(|&r| eat(r));
            }
        }
        eat(truth.planted_similar_pairs.len());
        for &(a, b) in &truth.planted_similar_pairs {
            eat(a);
            eat(b);
        }
        h
    }

    #[test]
    fn generator_output_is_pinned() {
        // Pins the generator's RNG draw order: one `gen_bool` per cell,
        // one `gen_range` per cluster size, flip and shuffle swap. Any
        // change to how rows are drawn, flipped or shuffled moves these.
        let cases = [
            (MatrixGenConfig::paper(200, 80, 7), 0x6534_d490_edd6_8b3b),
            (
                MatrixGenConfig {
                    perturbed_per_cluster: 1,
                    ..MatrixGenConfig::paper(300, 100, 5)
                },
                0x45b0_4d60_6e22_9639,
            ),
            (
                MatrixGenConfig {
                    density: 0.35,
                    perturbed_per_cluster: 2,
                    ..MatrixGenConfig::paper(150, 70, 13)
                },
                0x8551_4d4f_3ff6_6406,
            ),
        ];
        for (cfg, expected) in cases {
            assert_eq!(digest(&generate_matrix(cfg)), expected, "{cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cluster_fraction")]
    fn invalid_fraction_panics() {
        generate_matrix(MatrixGenConfig {
            cluster_fraction: 1.5,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one identical copy")]
    fn perturb_must_leave_a_copy() {
        generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 10,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "perturbed_per_cluster > 0 needs users > 0")]
    fn perturb_needs_a_column_to_flip() {
        generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(100, 0, 3)
        });
    }
}
