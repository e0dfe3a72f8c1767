//! Property tests for the mining engines: the lazy-greedy (CELF) cover
//! must be bit-identical to the eager oracle at every thread count and
//! configuration, covers must be exact on arbitrary UPAMs, candidates
//! must be sound, the floor-bounded generator must keep the pool the
//! enumerating one keeps, and cap-exceeding pools must mine without
//! panicking.

use proptest::collection::vec;
use proptest::prelude::*;

use rolediet_matrix::{CsrMatrix, RowMatrix};
use rolediet_mining::{
    generate_candidates, generate_candidates_with, mine_eager_cover, mine_greedy_cover,
    mine_greedy_cover_with, verify_exact_cover, CandidateConfig, MiningConfig,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn upam_inputs() -> impl Strategy<Value = (usize, usize, Vec<Vec<usize>>)> {
    (1usize..16, 1usize..14).prop_flat_map(|(users, perms)| {
        vec(vec(0..perms, 0..=6), users).prop_map(move |data| (users, perms, data))
    })
}

/// Mining configurations the equivalence is pinned across: the default,
/// a loose pool (singleton cores allowed), and a starved cap that forces
/// the pool down to (nearly) the uncappable initial rows.
fn configs() -> Vec<MiningConfig> {
    vec![
        MiningConfig::default(),
        MiningConfig {
            candidates: CandidateConfig {
                min_shared: 1,
                ..CandidateConfig::default()
            },
        },
        MiningConfig {
            candidates: CandidateConfig {
                max_candidates: 1,
                probe_limit: 3,
                ..CandidateConfig::default()
            },
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_greedy_matches_eager_oracle_across_threads((users, perms, data) in upam_inputs()) {
        let upam = CsrMatrix::from_rows_of_indices(users, perms, &data).unwrap();
        for config in configs() {
            let oracle = mine_eager_cover(&upam, &config).unwrap();
            verify_exact_cover(&upam, &oracle.roles).unwrap();
            for threads in THREAD_COUNTS {
                let lazy = mine_greedy_cover_with(&upam, &config, threads).unwrap();
                prop_assert_eq!(
                    &lazy, &oracle,
                    "lazy engine diverged from the eager oracle at {} threads", threads
                );
            }
        }
    }

    #[test]
    fn greedy_cover_is_always_exact((users, perms, data) in upam_inputs()) {
        let upam = CsrMatrix::from_rows_of_indices(users, perms, &data).unwrap();
        let result = mine_greedy_cover(&upam, &MiningConfig::default()).unwrap();
        verify_exact_cover(&upam, &result.roles).unwrap();
        prop_assert_eq!(result.cells_covered, upam.nnz());
        // Greedy optimizes covered cells per step, not role count, so it
        // can exceed the trivial distinct-profile cover (see the
        // `greedy_can_exceed_distinct_profiles` regression test); the
        // guaranteed bounds are structural:
        prop_assert!(result.n_roles() <= upam.nnz().max(1));
        prop_assert!(result.n_roles() <= result.candidates_considered);
        // Every mined role is non-empty and has at least one user.
        for role in &result.roles {
            prop_assert!(!role.permissions.is_empty());
            prop_assert!(!role.users.is_empty());
        }
    }

    #[test]
    fn candidates_are_sound((users, perms, data) in upam_inputs()) {
        let upam = CsrMatrix::from_rows_of_indices(users, perms, &data).unwrap();
        let pool = generate_candidates(&upam, &CandidateConfig::default());
        // Every candidate is sorted, non-empty, unique, within width,
        // and a subset of at least one user's permissions (candidates
        // are rows and their pairwise intersections).
        let sets: Vec<&[u32]> = pool.sets().collect();
        for (i, &c) in sets.iter().enumerate() {
            prop_assert!(!c.is_empty());
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]), "unsorted candidate");
            prop_assert!(c.last().copied().unwrap() < perms as u32);
            prop_assert!(
                !sets[..i].contains(&c),
                "duplicate candidate"
            );
            let contained = (0..users).any(|u| {
                rolediet_matrix::setops::is_subset(c, upam.row(u))
            });
            prop_assert!(contained, "candidate not grounded in any user row");
        }
        // Every distinct non-empty user row is present, cap or no cap.
        let starved = generate_candidates(
            &upam,
            &CandidateConfig { max_candidates: 0, ..CandidateConfig::default() },
        );
        for u in 0..users {
            if upam.row_norm(u) > 0 {
                prop_assert!(pool.sets().any(|c| c == upam.row(u)));
                prop_assert!(starved.sets().any(|c| c == upam.row(u)));
            }
        }
        prop_assert_eq!(starved.len(), starved.n_initial());
    }

    #[test]
    fn candidate_pools_are_thread_count_invariant((users, perms, data) in upam_inputs()) {
        let upam = CsrMatrix::from_rows_of_indices(users, perms, &data).unwrap();
        let reference = generate_candidates(&upam, &CandidateConfig::default());
        for threads in THREAD_COUNTS {
            let pool = generate_candidates_with(&upam, &CandidateConfig::default(), threads);
            prop_assert_eq!(&pool, &reference, "pool diverged at {} threads", threads);
        }
    }

    #[test]
    fn mining_is_deterministic((users, perms, data) in upam_inputs()) {
        let upam = CsrMatrix::from_rows_of_indices(users, perms, &data).unwrap();
        let a = mine_greedy_cover(&upam, &MiningConfig::default()).unwrap();
        let b = mine_greedy_cover(&upam, &MiningConfig::default()).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The generator before the floor-bounded walk, kept as its oracle:
/// every distinct row's probe-window cores enumerated, then sorted in
/// pool order, deduplicated, stripped of initial rows and cut to the
/// cap. Returns the pool's sets in pool order and its initial-row count.
fn enumerated_pool(upam: &CsrMatrix, config: &CandidateConfig) -> (Vec<Vec<u32>>, usize) {
    let pool_order = |a: &Vec<u32>, b: &Vec<u32>| b.len().cmp(&a.len()).then_with(|| a.cmp(b));
    let mut rows: Vec<Vec<u32>> = (0..upam.rows())
        .map(|u| upam.row(u).to_vec())
        .filter(|r| !r.is_empty())
        .collect();
    rows.sort();
    rows.dedup();
    // Permission -> distinct rows holding it, in row order.
    let mut inverted = vec![Vec::new(); upam.cols()];
    for (i, row) in rows.iter().enumerate() {
        row.iter().for_each(|&p| inverted[p as usize].push(i));
    }
    let min_shared = config.min_shared.max(1);
    let mut cores: Vec<Vec<u32>> = Vec::new();
    for (i, ri) in rows.iter().enumerate() {
        let support = |p: u32| inverted[p as usize].len();
        let probe = ri
            .iter()
            .copied()
            .filter(|&p| support(p) >= 2)
            .min_by_key(|&p| (support(p), p));
        let Some(p) = probe else {
            continue;
        };
        for &j in inverted[p as usize].iter().take(config.probe_limit) {
            if j == i {
                continue;
            }
            let core: Vec<u32> = rows[j].iter().copied().filter(|c| ri.contains(c)).collect();
            if core.len() >= min_shared && core.len() < ri.len() {
                cores.push(core);
            }
        }
    }
    cores.sort_by(pool_order);
    cores.dedup();
    cores.retain(|core| !rows.contains(core));
    cores.truncate(config.max_candidates);
    let n_initial = rows.len();
    rows.extend(cores);
    rows.sort_by(pool_order);
    (rows, n_initial)
}

/// Random UPAMs with a duplicate, an empty and a nested row appended: a
/// copy of the first row and its first half.
fn upams_with_repeats() -> impl Strategy<Value = CsrMatrix> {
    (1usize..20, 1usize..16)
        .prop_flat_map(|(users, perms)| {
            vec(vec(0..perms, 0..=10), users).prop_map(move |d| (perms, d))
        })
        .prop_map(|(perms, mut data)| {
            let mut first = data[0].clone();
            first.sort_unstable();
            first.dedup();
            data.push(first.clone());
            data.push(Vec::new());
            first.truncate(first.len() / 2);
            data.push(first);
            CsrMatrix::from_rows_of_indices(data.len(), perms, &data).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The floor-bounded walk keeps exactly the enumerated pool: small caps
    /// make the floor bind, and each worker's floor is its own.
    #[test]
    fn floor_bounded_walk_matches_enumerated_pool(upam in upams_with_repeats()) {
        for max_candidates in [0, 1, 2, 3, 7, 10_000] {
            for probe_limit in [1, 3, 128] {
                for min_shared in [1, 2] {
                    let config = CandidateConfig { max_candidates, min_shared, probe_limit };
                    let (want, n_initial) = enumerated_pool(&upam, &config);
                    for threads in THREAD_COUNTS {
                        let pool = generate_candidates_with(&upam, &config, threads);
                        prop_assert_eq!(pool.n_initial(), n_initial);
                        prop_assert!(
                            pool.sets().eq(want.iter().map(Vec::as_slice)),
                            "pool diverged at {:?}, {} threads", config, threads
                        );
                    }
                }
            }
        }
    }
}

/// Every candidate knob at 0 and at `usize::MAX` still mines an exact
/// cover: no panic, and no allocation sized by the cap.
#[test]
fn extreme_configs_mine_exact_covers() {
    let org = rolediet_synth::profiles::generate_ing_like(0.01, 3);
    let rows = [
        vec![0, 1, 2, 3],
        vec![0, 1, 2, 3],
        vec![0, 1],
        vec![],
        vec![2, 3, 4],
    ];
    let inputs = [
        org.graph.upam_sparse(),
        CsrMatrix::from_rows_of_indices(rows.len(), 5, &rows).unwrap(),
    ];
    for upam in &inputs {
        for max_candidates in [0, usize::MAX] {
            for probe_limit in [0, usize::MAX] {
                for min_shared in [0, usize::MAX] {
                    let config = MiningConfig {
                        candidates: CandidateConfig {
                            max_candidates,
                            min_shared,
                            probe_limit,
                        },
                    };
                    for threads in [1, 2] {
                        let result = mine_greedy_cover_with(upam, &config, threads).unwrap();
                        verify_exact_cover(upam, &result.roles)
                            .unwrap_or_else(|e| panic!("{config:?} at {threads} threads: {e}"));
                    }
                }
            }
        }
    }
}

/// Lazy == eager on organization-shaped UPAMs (department-clustered
/// users, duplicate profiles, standalone users, empty rows), across
/// thread counts. Heavier than the random-shape proptest, so a few
/// seeds instead of 64 cases.
#[test]
fn lazy_greedy_matches_eager_oracle_on_org_shaped_upams() {
    for seed in [2, 17] {
        let org = rolediet_synth::generate_org(rolediet_synth::profiles::small_org(seed));
        let upam = org.graph.upam_sparse();
        let oracle = mine_eager_cover(&upam, &MiningConfig::default()).unwrap();
        verify_exact_cover(&upam, &oracle.roles).unwrap();
        for threads in THREAD_COUNTS {
            let lazy = mine_greedy_cover_with(&upam, &MiningConfig::default(), threads).unwrap();
            assert_eq!(
                lazy, oracle,
                "seed {seed}: lazy diverged from eager at {threads} threads"
            );
        }
    }
}

/// Regression (PR 10 satellite): with more distinct non-empty rows than
/// `max_candidates`, the seed-era generator truncated initial rows out
/// of the pool and the greedy loop died on its `unreachable!()`. The cap
/// now applies to derived candidates only, so this mines fine — and a
/// genuinely insufficient (hand-built) pool returns the typed
/// `ModelError::CoverStalled` instead of panicking.
#[test]
fn cap_exceeding_pools_mine_without_panicking() {
    let rows: Vec<Vec<usize>> = (0..10).map(|i| vec![i, (i + 1) % 10]).collect();
    let upam = CsrMatrix::from_rows_of_indices(10, 10, &rows).unwrap();
    let cfg = MiningConfig {
        candidates: CandidateConfig {
            max_candidates: 3,
            ..CandidateConfig::default()
        },
    };
    let eager = mine_eager_cover(&upam, &cfg).unwrap();
    let lazy = mine_greedy_cover(&upam, &cfg).unwrap();
    assert_eq!(eager, lazy);
    verify_exact_cover(&upam, &lazy.roles).unwrap();

    let pool = rolediet_mining::CandidatePool::from_sets(10, vec![vec![0]]).unwrap();
    let err = rolediet_mining::mine_lazy_from_pool(&upam, &pool, 1).unwrap_err();
    assert!(matches!(
        err,
        rolediet_model::ModelError::CoverStalled { .. }
    ));
    let err = rolediet_mining::mine_eager_from_pool(&upam, &pool).unwrap_err();
    assert!(matches!(
        err,
        rolediet_model::ModelError::CoverStalled { .. }
    ));
}

/// Regression pin (found by the property above in an earlier form):
/// greedy picks the shared intersection {0,1,7} first (gain 6 beats
/// either full row's gain 4), then needs two leftover roles — 3 roles
/// where the trivial distinct-profile cover uses 2. This is inherent to
/// greedy set cover, not a bug; it trades role count for assignment
/// sparsity (4 user–role assignments instead of 2, but 7 role-permission
/// grants instead of 8).
#[test]
fn greedy_can_exceed_distinct_profiles() {
    let upam =
        CsrMatrix::from_rows_of_indices(2, 9, &[vec![0, 1, 2, 7], vec![0, 1, 3, 7]]).unwrap();
    let result = mine_greedy_cover(&upam, &MiningConfig::default()).unwrap();
    verify_exact_cover(&upam, &result.roles).unwrap();
    assert_eq!(result.n_roles(), 3);
    assert_eq!(result.roles[0].permissions, vec![0, 1, 7]);
    assert_eq!(result.roles[0].users, vec![0, 1]);
}

/// FNV-1a over a sequence of `usize` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: usize) {
        for b in (x as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_all(&mut self, xs: impl ExactSizeIterator<Item = usize>) {
        self.eat(xs.len());
        xs.for_each(|x| self.eat(x));
    }
}

/// A pool's sets in pool order, then its initial-row count.
fn pool_digest(pool: &rolediet_mining::CandidatePool) -> u64 {
    let mut h = Fnv::new();
    h.eat(pool.len());
    for set in pool.sets() {
        h.eat_all(set.iter().map(|&p| p as usize));
    }
    h.eat(pool.n_initial());
    h.0
}

/// Each role's permissions then users in selection order, then the
/// candidate and cell counts.
fn cover_digest(result: &rolediet_mining::MiningResult) -> u64 {
    let mut h = Fnv::new();
    h.eat(result.n_roles());
    for role in &result.roles {
        h.eat_all(role.permissions.iter().copied());
        h.eat_all(role.users.iter().copied());
    }
    h.eat(result.candidates_considered);
    h.eat(result.cells_covered);
    h.0
}

/// Pins the candidate pool and the lazy cover on org-sized UPAMs: the
/// benchmark's small ing-like org shape and a department-clustered
/// small org, projected and mined at one and two threads. Which candidates the pool keeps,
/// in which order, and which one each round commits are pure functions
/// of the UPAM, so a faster generator or cover must leave every digest
/// as it is.
#[test]
fn mined_cover_is_pinned() {
    let cases = [
        (
            "ing_like(0.05, 7)",
            rolediet_synth::profiles::generate_ing_like(0.05, 7),
            0xfe2d_40f4_a0c4_2872u64,
            0xf344_44c3_ab8e_e257u64,
        ),
        (
            "small_org(17)",
            rolediet_synth::generate_org(rolediet_synth::profiles::small_org(17)),
            0x742d_7585_c08e_9ecc,
            0x09c7_cf20_d933_1de7,
        ),
    ];
    let config = MiningConfig::default();
    for (name, org, want_pool, want_cover) in cases {
        for threads in [1, 2] {
            let upam = org.graph.upam_sparse_with(threads);
            let pool = generate_candidates_with(&upam, &config.candidates, threads);
            let result = mine_greedy_cover_with(&upam, &config, threads).unwrap();
            let (got_pool, got_cover) = (pool_digest(&pool), cover_digest(&result));
            assert_eq!(
                got_pool, want_pool,
                "{name} at {threads} threads: pool digest {got_pool:#x}"
            );
            assert_eq!(
                got_cover, want_cover,
                "{name} at {threads} threads: cover digest {got_cover:#x}"
            );
        }
    }
}
