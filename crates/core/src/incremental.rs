//! Incremental T1–T5 maintenance under edge churn.
//!
//! The batch pipeline recomputes everything per run; between runs an IAM
//! system keeps mutating, and the paper's §IV deployment model (detect
//! periodically, catch stragglers next run) leaves a latency gap that a
//! single-edge change does not justify: a full rerun costs seconds at
//! real-org scale while one churn event flips one matrix cell. This
//! module closes that gap with one online engine, [`IncrementalPipeline`],
//! which uses the batch algorithms as its test oracle. It consumes
//! [`EdgeDelta`] events (the stream a
//! [`ChurnSimulator`](../../rolediet_synth/churn/struct.ChurnSimulator.html)
//! records, or any importer can synthesize) and maintains every finding
//! class of the [`Report`] online:
//!
//! * **T1–T3** — four degree-counter vectors (roles per user, roles per
//!   permission, users per role, permissions per role), updated in O(1)
//!   per edge flip; the report lists fall out of one linear scan.
//! * **T4** — signature buckets per side, keyed exactly like the batch
//!   pass ([`hash_indices`] over the ascending index row): each edge flip
//!   re-hashes its role's row where the graph keeps it and moves the role
//!   between buckets in `O(row + log buckets)`. At report time the batch
//!   splitter ([`split_buckets`]) verifies the buckets bit-for-bit, so
//!   hash collisions cannot leak through. The key does not depend on the
//!   row width, so `AddUser`/`AddPermission` (which widen rows) touch
//!   nothing.
//! * **T5** — the maintained pair set per side (ordered `(distance, a,
//!   b)` exactly like the batch sort), updated with only the touched rows'
//!   partners. A batch records the `(side, role)` rows its flips touch and,
//!   after its last delta, re-probes each of them once against the final
//!   graph, however many times the batch flipped it. The re-probe is the
//!   batch detector's own probe ([`cooccur`]'s `t + 1`-column prefix over
//!   the inverted index), here over the graph's adjacency and the degree
//!   counters, with one set of probe buffers per side reused by every
//!   re-probe, so the pipeline keeps no copy of the rows. With
//!   `include_disjoint`, the rows of norm `≤ t` are tracked for the
//!   disjoint pairs no inverted list holds.
//!
//! After every applied batch (an [`apply`](IncrementalPipeline::apply) is
//! a batch of one event) the maintained findings are bit-identical to
//! [`Pipeline::run`](crate::Pipeline::run) on the materialized graph
//! under an exact strategy — the property proptests pin at multiple
//! thread counts.
//!
//! Between two reports, [`ReportDelta`] (modeled on the added/removed
//! shape of `rolediet_model::diff`) names exactly which findings
//! appeared and disappeared. [`IncrementalPipeline::apply_batch`] returns
//! that delta for one batch without building either report: while the
//! batch applies it journals what the events touch (degrees before the
//! batch, the verified groups of each signature bucket it dirties, the
//! net T5 pair changes), and at the end it compares only those entries.
//! The cost is `O(events + dirtied buckets + changed pairs)`, and the
//! result equals [`ReportDelta::between`] of the reports before and after
//! the batch, list order included.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use rolediet_matrix::{
    hash_indices, hash_words, split_buckets, CsrMatrix, RowMatrix, RowSignature,
};
use rolediet_model::{EdgeDelta, PermissionId, RoleId, TripartiteGraph, UserId};

use crate::config::{DetectionConfig, SimilarityConfig};
use crate::cooccur::{self, InvertedIndex, ProbeScratch};
use crate::report::{Report, SimilarPair};
use crate::taxonomy::Side;

/// Added/removed findings of one class between two reports — the same
/// shape as `rolediet_model::diff`'s dataset deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindingDelta<T> {
    /// Findings present after but not before.
    pub added: Vec<T>,
    /// Findings present before but not after.
    pub removed: Vec<T>,
}

// The vendored serde_derive does not handle generic types, so the
// `{added, removed}` map shape is spelled out by hand.
impl<T: Serialize> Serialize for FindingDelta<T> {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("added".to_owned(), self.added.to_content()),
            ("removed".to_owned(), self.removed.to_content()),
        ])
    }
}

impl<T: Deserialize> Deserialize for FindingDelta<T> {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            content
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")))
        };
        Ok(FindingDelta {
            added: Vec::<T>::from_content(field("added")?)?,
            removed: Vec::<T>::from_content(field("removed")?)?,
        })
    }
}

impl<T: Ord + Clone> FindingDelta<T> {
    fn between(before: &[T], after: &[T]) -> Self {
        let was: BTreeSet<&T> = before.iter().collect();
        let now: BTreeSet<&T> = after.iter().collect();
        FindingDelta {
            added: after.iter().filter(|x| !was.contains(x)).cloned().collect(),
            removed: before
                .iter()
                .filter(|x| !now.contains(x))
                .cloned()
                .collect(),
        }
    }
}

impl<T> FindingDelta<T> {
    /// `true` when nothing was added or removed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of added plus removed findings.
    pub fn change_count(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Finding-level difference between two [`Report`]s: per finding class,
/// which entries appeared and which disappeared (order preserved from
/// the respective report). Timings and config are not compared.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportDelta {
    /// T1 — users with no role.
    pub standalone_users: FindingDelta<usize>,
    /// T1 — permissions granted by no role.
    pub standalone_permissions: FindingDelta<usize>,
    /// T1 — roles with neither users nor permissions.
    pub standalone_roles: FindingDelta<usize>,
    /// T2 — roles with permissions but no users.
    pub userless_roles: FindingDelta<usize>,
    /// T2 — roles with users but no permissions.
    pub permless_roles: FindingDelta<usize>,
    /// T3 — roles with exactly one user.
    pub single_user_roles: FindingDelta<usize>,
    /// T3 — roles with exactly one permission.
    pub single_permission_roles: FindingDelta<usize>,
    /// T4 — groups of roles with identical user sets.
    pub same_user_groups: FindingDelta<Vec<usize>>,
    /// T4 — groups of roles with identical permission sets.
    pub same_permission_groups: FindingDelta<Vec<usize>>,
    /// T5 — similar-user role pairs.
    pub similar_user_pairs: FindingDelta<SimilarPair>,
    /// T5 — similar-permission role pairs.
    pub similar_permission_pairs: FindingDelta<SimilarPair>,
}

impl ReportDelta {
    /// Computes the finding-level difference `after − before`.
    pub fn between(before: &Report, after: &Report) -> Self {
        ReportDelta {
            standalone_users: FindingDelta::between(
                &before.standalone_users,
                &after.standalone_users,
            ),
            standalone_permissions: FindingDelta::between(
                &before.standalone_permissions,
                &after.standalone_permissions,
            ),
            standalone_roles: FindingDelta::between(
                &before.standalone_roles,
                &after.standalone_roles,
            ),
            userless_roles: FindingDelta::between(&before.userless_roles, &after.userless_roles),
            permless_roles: FindingDelta::between(&before.permless_roles, &after.permless_roles),
            single_user_roles: FindingDelta::between(
                &before.single_user_roles,
                &after.single_user_roles,
            ),
            single_permission_roles: FindingDelta::between(
                &before.single_permission_roles,
                &after.single_permission_roles,
            ),
            same_user_groups: FindingDelta::between(
                &before.same_user_groups,
                &after.same_user_groups,
            ),
            same_permission_groups: FindingDelta::between(
                &before.same_permission_groups,
                &after.same_permission_groups,
            ),
            similar_user_pairs: FindingDelta::between(
                &before.similar_user_pairs,
                &after.similar_user_pairs,
            ),
            similar_permission_pairs: FindingDelta::between(
                &before.similar_permission_pairs,
                &after.similar_permission_pairs,
            ),
        }
    }

    /// `true` when no finding class changed.
    pub fn is_empty(&self) -> bool {
        self.standalone_users.is_empty()
            && self.standalone_permissions.is_empty()
            && self.standalone_roles.is_empty()
            && self.userless_roles.is_empty()
            && self.permless_roles.is_empty()
            && self.single_user_roles.is_empty()
            && self.single_permission_roles.is_empty()
            && self.same_user_groups.is_empty()
            && self.same_permission_groups.is_empty()
            && self.similar_user_pairs.is_empty()
            && self.similar_permission_pairs.is_empty()
    }

    /// Total number of added plus removed findings across all classes.
    pub fn change_count(&self) -> usize {
        self.standalone_users.change_count()
            + self.standalone_permissions.change_count()
            + self.standalone_roles.change_count()
            + self.userless_roles.change_count()
            + self.permless_roles.change_count()
            + self.single_user_roles.change_count()
            + self.single_permission_roles.change_count()
            + self.same_user_groups.change_count()
            + self.same_permission_groups.change_count()
            + self.similar_user_pairs.change_count()
            + self.similar_permission_pairs.change_count()
    }
}

/// The T5 state of one side: the maintained pair set, mirrored per row
/// for O(partners) removal. It holds no row data; a touched row is
/// re-probed over the graph ([`GraphSide`]).
#[derive(Debug, Clone, PartialEq)]
struct SimilarState {
    /// Per-row partner → distance map (both directions stored).
    partners: Vec<BTreeMap<u32, u32>>,
    /// All maintained pairs as `(distance, a, b)`, `a < b` — the batch
    /// finalize order, so the report is a prefix iteration.
    ordered: BTreeSet<(u32, u32, u32)>,
    /// With `include_disjoint`, the rows of norm `≤ t`: the only rows
    /// with disjoint partners in range, which no inverted list holds.
    /// Empty otherwise.
    low: BTreeSet<u32>,
    /// The probe's buffers, reused by every re-probe of this side (equal
    /// in every two states, so comparisons ignore it).
    scratch: ProbeScratch,
}

impl SimilarState {
    fn build(matrix: &CsrMatrix, similarity: &SimilarityConfig, threads: usize) -> Self {
        let transpose = matrix.transpose_with(threads);
        // Maintain the *full* pair set; `max_pairs` is a report-time
        // truncation (the batch path sorts before truncating, so a
        // maintained prefix is only correct over the complete set).
        let full = SimilarityConfig {
            max_pairs: usize::MAX,
            ..*similarity
        };
        let mut partners: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); matrix.n_rows()];
        let mut ordered = BTreeSet::new();
        for p in cooccur::similar_pairs_parallel(matrix, &transpose, &full, threads) {
            partners[p.a].insert(p.b as u32, p.distance as u32);
            partners[p.b].insert(p.a as u32, p.distance as u32);
            ordered.insert((p.distance as u32, p.a as u32, p.b as u32));
        }
        let mut low = BTreeSet::new();
        if similarity.include_disjoint {
            low.extend(
                (0..matrix.n_rows() as u32)
                    .filter(|&r| matrix.row(r as usize).len() <= similarity.threshold),
            );
        }
        SimilarState {
            partners,
            ordered,
            low,
            scratch: ProbeScratch::default(),
        }
    }

    /// Re-derives every pair involving `r` from its row in `index`: drop
    /// the old partners, then probe the row. Each removal and insertion
    /// is noted in `log`.
    fn retouch(
        &mut self,
        r: u32,
        index: &impl InvertedIndex,
        similarity: &SimilarityConfig,
        mut log: Option<&mut PairLog>,
    ) {
        for (j, d) in std::mem::take(&mut self.partners[r as usize]) {
            self.partners[j as usize].remove(&r);
            let key = (d, r.min(j), r.max(j));
            self.ordered.remove(&key);
            note_pair(log.as_deref_mut(), key, false);
        }
        self.probe(r, index, similarity, log);
    }

    /// Records every pair of row `r`, noting each insertion in `log`: the
    /// shared probe's partners, which share a column with `r`, and — with
    /// `include_disjoint`, when `|Rʳ| ≤ t` — the disjoint rows of norm at
    /// most `t − |Rʳ|`, at distance equal to the sum of the norms.
    fn probe(
        &mut self,
        r: u32,
        index: &impl InvertedIndex,
        similarity: &SimilarityConfig,
        mut log: Option<&mut PairLog>,
    ) {
        let t = similarity.threshold;
        let mut record = |j: u32, d: usize| {
            let d = d as u32;
            let key = (d, r.min(j), r.max(j));
            self.partners[r as usize].insert(j, d);
            self.partners[j as usize].insert(r, d);
            self.ordered.insert(key);
            note_pair(log.as_deref_mut(), key, true);
        };
        cooccur::probe_similar(index, r, 0, t, &mut self.scratch, &mut record);
        if !similarity.include_disjoint {
            return;
        }
        let norm = index.row_norm(r);
        if norm > t {
            self.low.remove(&r);
            return;
        }
        self.low.insert(r);
        for &j in &self.low {
            let d = norm + index.row_norm(j);
            if j != r && (1..=t).contains(&d) && disjoint(index.row(r), index.row(j)) {
                record(j, d);
            }
        }
    }

    /// The T5 findings a batch touched, as `(before, after)` pair lists
    /// in report order. Untruncated, those are the keys `log` removed and
    /// inserted. When `max_pairs` truncates either report, a key can enter
    /// or leave a report without being touched, so the lists are the two
    /// truncated reports themselves.
    fn touched_pairs(
        &self,
        log: &PairLog,
        max_pairs: usize,
    ) -> (Vec<SimilarPair>, Vec<SimilarPair>) {
        let inserted = log.values().filter(|&&ins| ins).count();
        let len_before = self.ordered.len() + (log.len() - inserted) - inserted;
        let keys = |ins: bool| log.iter().filter(move |&(_, &i)| i == ins).map(|(&k, _)| k);
        if self.ordered.len().max(len_before) <= max_pairs {
            return (
                keys(false).map(similar_pair).collect(),
                keys(true).map(similar_pair).collect(),
            );
        }
        // Before the batch the set was the current one minus the inserted
        // keys plus the removed ones. At most `inserted` of the first
        // `max_pairs + inserted` current keys drop out, so those keys and
        // the removed ones hold the whole truncated prefix.
        let mut before: Vec<(u32, u32, u32)> = self
            .ordered
            .iter()
            .take(max_pairs.saturating_add(inserted))
            .filter(|k| log.get(k) != Some(&true))
            .copied()
            .chain(keys(false))
            .collect();
        before.sort_unstable();
        before.truncate(max_pairs);
        (
            before.into_iter().map(similar_pair).collect(),
            self.ordered
                .iter()
                .take(max_pairs)
                .copied()
                .map(similar_pair)
                .collect(),
        )
    }
}

/// A maintained `(distance, a, b)` key as the report's [`SimilarPair`].
fn similar_pair((d, a, b): (u32, u32, u32)) -> SimilarPair {
    SimilarPair {
        a: a as usize,
        b: b as usize,
        distance: d as usize,
    }
}

/// Whether two ascending column lists share no column.
fn disjoint(a: impl Iterator<Item = u32>, b: impl Iterator<Item = u32>) -> bool {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// The net T5 changes of one batch on one side: `true` for a
/// `(distance, a, b)` key the batch inserted, `false` for one it removed.
type PairLog = BTreeMap<(u32, u32, u32), bool>;

/// Notes one insertion or removal of `key` in `log`. A key is only ever
/// inserted while absent and removed while present, so a second note for
/// the same key undoes the first: the two cancel.
fn note_pair(log: Option<&mut PairLog>, key: (u32, u32, u32), inserted: bool) {
    if let Some(log) = log {
        if log.remove(&key).is_none() {
            log.insert(key, inserted);
        }
    }
}

/// Work counts of [`IncrementalPipeline`] updates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UpdateTally {
    /// Bucket members handed to the duplicate splitter, before and after
    /// each batch.
    pub(crate) split_rows: u64,
    /// Rows re-probed for their T5 pairs.
    pub(crate) reprobes: u64,
}

/// What one [`IncrementalPipeline::apply_batch`] call touched, recorded
/// as the batch applies so that its [`ReportDelta`] is assembled from the
/// touched entries alone. It lives only for the call; the pipeline never
/// stores it.
#[derive(Debug, Default)]
struct Journal {
    /// Roles per touched user before the batch (`None`: the batch added
    /// the user).
    users: BTreeMap<usize, Option<u32>>,
    /// Roles per touched permission before the batch.
    perms: BTreeMap<usize, Option<u32>>,
    /// `(users, permissions)` per touched role before the batch.
    roles: BTreeMap<usize, Option<(u32, u32)>>,
    user_side: SideJournal,
    perm_side: SideJournal,
}

/// The T4 and T5 part of a [`Journal`] for one matrix side.
#[derive(Debug, Default)]
struct SideJournal {
    /// Each dirtied signature bucket's verified groups, taken the first
    /// time the batch dirtied it, so as the bucket stood before the batch.
    groups: BTreeMap<RowSignature, Vec<Vec<usize>>>,
    /// The net T5 pair changes.
    pairs: PairLog,
    /// Bucket members handed to the duplicate splitter, before and after.
    split_rows: u64,
}

/// One side (RUAM or RPAM) of the maintained state: T4 signature buckets
/// always, T5 similarity state unless the pipeline skips it.
#[derive(Debug, Clone, PartialEq)]
struct SideState {
    sigs: Vec<RowSignature>,
    buckets: BTreeMap<RowSignature, BTreeSet<u32>>,
    /// The non-empty rows in the empty row's bucket (hash collisions,
    /// almost always none): the members of that bucket the duplicate
    /// splitter sees unless empty duplicates are reported.
    collided: BTreeSet<u32>,
    similar: Option<SimilarState>,
}

impl SideState {
    fn build(matrix: &CsrMatrix, config: &DetectionConfig, threads: usize) -> Self {
        let n = matrix.rows();
        let empty = hash_indices(&[]);
        let mut sigs = Vec::with_capacity(n);
        let mut buckets: BTreeMap<RowSignature, BTreeSet<u32>> = BTreeMap::new();
        let mut collided = BTreeSet::new();
        for r in 0..n {
            let sig = matrix.row_signature(r);
            buckets.entry(sig).or_default().insert(r as u32);
            if sig == empty && matrix.row_norm(r) > 0 {
                collided.insert(r as u32);
            }
            sigs.push(sig);
        }
        let similar = if config.skip_similarity {
            None
        } else {
            Some(SimilarState::build(matrix, &config.similarity, threads))
        };
        SideState {
            sigs,
            buckets,
            collided,
            similar,
        }
    }

    /// Row `r` changed and now has key `new` (and no column when `empty`):
    /// move it between signature buckets. Its T5 pairs wait for the
    /// re-probe that ends the batch.
    fn touch(&mut self, r: u32, new: RowSignature, empty: bool) {
        let old = self.sigs[r as usize];
        if new != old {
            if let Some(members) = self.buckets.get_mut(&old) {
                members.remove(&r);
                if members.is_empty() {
                    self.buckets.remove(&old);
                }
            }
            self.buckets.entry(new).or_default().insert(r);
            self.sigs[r as usize] = new;
        }
        if !empty && new == hash_indices(&[]) {
            self.collided.insert(r);
        } else {
            self.collided.remove(&r);
        }
    }

    /// A new (empty) role row `r` was appended. An empty row has an empty
    /// prefix, so it can only pair disjointly; the re-probe that ends the
    /// batch finds those pairs.
    fn add_row(&mut self, r: u32) {
        let sig = hash_indices(&[]);
        self.sigs.push(sig);
        self.buckets.entry(sig).or_default().insert(r);
        if let Some(sim) = &mut self.similar {
            sim.partners.push(BTreeMap::new());
        }
    }

    /// Current similar pairs in batch finalize order (distance, a, b),
    /// truncated to `max_pairs`. Empty when similarity is skipped.
    fn pairs(&self, max_pairs: usize) -> Vec<SimilarPair> {
        match &self.similar {
            Some(sim) => sim
                .ordered
                .iter()
                .take(max_pairs)
                .copied()
                .map(similar_pair)
                .collect(),
            None => Vec::new(),
        }
    }

    /// [`SimilarState::touched_pairs`]; empty when similarity is skipped.
    fn touched_pairs(
        &self,
        log: &PairLog,
        max_pairs: usize,
    ) -> (Vec<SimilarPair>, Vec<SimilarPair>) {
        match &self.similar {
            Some(sim) => sim.touched_pairs(log, max_pairs),
            None => (Vec::new(), Vec::new()),
        }
    }
}

/// One side of the graph as the T5 probe's [`InvertedIndex`]: the
/// graph's adjacency gives the rows of a column and the columns of a
/// row, the pipeline's degree counters give column degrees and row norms.
struct GraphSide<'a> {
    graph: &'a TripartiteGraph,
    side: Side,
    /// Roles per user or per permission.
    col_degrees: &'a [u32],
    /// Users or permissions per role.
    norms: &'a [u32],
}

impl InvertedIndex for GraphSide<'_> {
    fn n_rows(&self) -> usize {
        self.norms.len()
    }

    fn n_cols(&self) -> usize {
        self.col_degrees.len()
    }

    fn col_degree(&self, c: u32) -> usize {
        self.col_degrees[c as usize] as usize
    }

    fn rows_of(&self, c: u32) -> impl Iterator<Item = u32> {
        let g = self.graph;
        match self.side {
            Side::User => Walk::User(g.roles_of_user(UserId(c)).map(|r| r.0)),
            Side::Permission => {
                Walk::Permission(g.roles_of_permission(PermissionId(c)).map(|r| r.0))
            }
        }
    }

    fn row_norm(&self, r: u32) -> usize {
        self.norms[r as usize] as usize
    }

    fn row(&self, r: u32) -> impl Iterator<Item = u32> {
        let g = self.graph;
        match self.side {
            Side::User => Walk::User(g.users_of(RoleId(r)).map(|u| u.0)),
            Side::Permission => Walk::Permission(g.permissions_of(RoleId(r)).map(|p| p.0)),
        }
    }
}

/// A [`GraphSide`] adjacency walk on either side, as raw ids.
enum Walk<U, P> {
    User(U),
    Permission(P),
}

impl<U: Iterator<Item = u32>, P: Iterator<Item = u32>> Iterator for Walk<U, P> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Walk::User(it) => it.next(),
            Walk::Permission(it) => it.next(),
        }
    }
}

/// Pushes the T1–T3 findings of the given `(index, degree)` entries onto
/// `report`, in entry order. [`IncrementalPipeline::report`] feeds it
/// every entry, a batch delta only the touched ones: one classifier for
/// both.
fn push_degree_findings(
    report: &mut Report,
    users: impl Iterator<Item = (usize, u32)>,
    perms: impl Iterator<Item = (usize, u32)>,
    roles: impl Iterator<Item = (usize, (u32, u32))>,
) {
    report
        .standalone_users
        .extend(users.filter(|&(_, deg)| deg == 0).map(|(u, _)| u));
    report
        .standalone_permissions
        .extend(perms.filter(|&(_, deg)| deg == 0).map(|(p, _)| p));
    for (r, (us, ps)) in roles {
        match (us, ps) {
            (0, 0) => report.standalone_roles.push(r),
            (0, _) => report.userless_roles.push(r),
            (_, 0) => report.permless_roles.push(r),
            _ => {}
        }
        if us == 1 {
            report.single_user_roles.push(r);
        }
        if ps == 1 {
            report.single_permission_roles.push(r);
        }
    }
}

/// The full detection state maintained online under [`EdgeDelta`]
/// events.
///
/// Construction runs the same parallel builds as the batch pipeline
/// (matrix projection, signature pass, T5 probe). From then on every edge
/// flip costs one re-hash of its role's row, and a batch one T5 probe per
/// row it touched ([`apply`](Self::apply) is a batch of one), instead of
/// a full rerun; [`report`](Self::report) assembles the current findings
/// in one linear pass over the maintained state.
///
/// The maintained semantics are *exact* (the custom strategy's): under
/// an exact strategy in [`DetectionConfig`] the report is bit-identical
/// to [`Pipeline::run`](crate::Pipeline::run) on the materialized graph;
/// approximate strategies (HNSW, MinHash) may report fewer pairs than
/// this engine.
///
/// # Examples
///
/// ```
/// use rolediet_core::incremental::IncrementalPipeline;
/// use rolediet_core::{DetectionConfig, Pipeline};
/// use rolediet_model::{EdgeDelta, TripartiteGraph};
///
/// let graph = TripartiteGraph::figure1_example();
/// let config = DetectionConfig::default();
/// let mut inc = IncrementalPipeline::new(&graph, config);
/// // R01 loses its only user: U01 goes standalone, R01 goes userless.
/// inc.apply(&EdgeDelta::Revoke { role: 0, user: 0 })?;
/// let report = inc.report();
/// assert!(report.standalone_users.contains(&0));
/// assert!(report.userless_roles.contains(&0));
/// # Ok::<(), rolediet_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalPipeline {
    config: DetectionConfig,
    graph: TripartiteGraph,
    /// Roles per user (RUAM column sums).
    user_roles: Vec<u32>,
    /// Roles per permission (RPAM column sums).
    perm_roles: Vec<u32>,
    /// Users per role (RUAM row sums).
    role_users: Vec<u32>,
    /// Permissions per role (RPAM row sums).
    role_perms: Vec<u32>,
    users: SideState,
    perms: SideState,
}

impl IncrementalPipeline {
    /// Builds the maintained state from a snapshot of `graph` (copied in)
    /// under `config`, using `config.parallelism` workers for the batch
    /// builds.
    pub fn new(graph: &TripartiteGraph, config: DetectionConfig) -> Self {
        let threads = config.parallelism.threads();
        let ruam = graph.ruam_sparse_with(threads);
        let rpam = graph.rpam_sparse_with(threads);
        let users = SideState::build(&ruam, &config, threads);
        let perms = SideState::build(&rpam, &config, threads);
        let to_u32 = |sums: Vec<usize>| sums.into_iter().map(|s| s as u32).collect();
        IncrementalPipeline {
            config,
            graph: graph.clone(),
            user_roles: to_u32(ruam.col_sums_with(threads)),
            perm_roles: to_u32(rpam.col_sums_with(threads)),
            role_users: to_u32(ruam.row_sums_with(threads)),
            role_perms: to_u32(rpam.row_sums_with(threads)),
            users,
            perms,
        }
    }

    /// The materialized graph (always in sync with the maintained
    /// findings).
    pub fn graph(&self) -> &TripartiteGraph {
        &self.graph
    }

    /// The configuration the maintained findings are reported under.
    pub fn config(&self) -> &DetectionConfig {
        &self.config
    }

    /// Applies one delta to the graph and the maintained state. Returns
    /// whether the graph changed (a no-op edge flip touches nothing).
    /// On an error (unknown id) neither the graph nor the state is
    /// modified.
    pub fn apply(&mut self, delta: &EdgeDelta) -> rolediet_model::Result<bool> {
        self.apply_counted(delta, &mut UpdateTally::default())
    }

    /// [`apply`](Self::apply), adding its work counts to `tally`: a batch
    /// of one delta.
    pub(crate) fn apply_counted(
        &mut self,
        delta: &EdgeDelta,
        tally: &mut UpdateTally,
    ) -> rolediet_model::Result<bool> {
        self.apply_deferred(std::slice::from_ref(delta), None, tally)
    }

    /// Applies `stream` in order, journaling each delta in `journal` when
    /// given, then re-probes each row the applied deltas touched once,
    /// against the final graph. A delta that fails ends the stream, and
    /// the rows touched before it are still re-probed, so the state stays
    /// consistent with the graph. Returns whether any delta changed the
    /// graph.
    fn apply_deferred(
        &mut self,
        stream: &[EdgeDelta],
        mut journal: Option<&mut Journal>,
        tally: &mut UpdateTally,
    ) -> rolediet_model::Result<bool> {
        let mut touched = BTreeSet::new();
        let applied = stream.iter().try_fold(false, |changed, delta| {
            Ok(self.apply_journaled(delta, journal.as_deref_mut(), &mut touched)? | changed)
        });
        self.reprobe(&touched, journal, tally);
        applied
    }

    /// Applies one delta to the graph, the degree counters and the T4
    /// buckets, first recording in `journal` (when given) what `delta` is
    /// about to touch, as it stood before the batch. The `(side, role)`
    /// rows it changes are added to `touched` for the re-probe.
    fn apply_journaled(
        &mut self,
        delta: &EdgeDelta,
        mut journal: Option<&mut Journal>,
        touched: &mut BTreeSet<(Side, u32)>,
    ) -> rolediet_model::Result<bool> {
        if let Some(journal) = journal.as_deref_mut() {
            self.note_before(delta, journal);
        }
        let changed = delta.apply(&mut self.graph)?;
        if !changed {
            return Ok(false);
        }
        let (user_journal, perm_journal) = match journal {
            Some(j) => (Some(&mut j.user_side), Some(&mut j.perm_side)),
            None => (None, None),
        };
        let (side, role, journal) = match *delta {
            EdgeDelta::AddUser => {
                self.user_roles.push(0);
                return Ok(true);
            }
            EdgeDelta::AddPermission => {
                self.perm_roles.push(0);
                return Ok(true);
            }
            EdgeDelta::AddRole => {
                let role = RoleId::from_index(self.role_users.len()).0;
                self.role_users.push(0);
                self.role_perms.push(0);
                self.users.add_row(role);
                self.perms.add_row(role);
                touched.insert((Side::User, role));
                touched.insert((Side::Permission, role));
                return Ok(true);
            }
            EdgeDelta::Assign { role, user } => {
                self.user_roles[user as usize] += 1;
                self.role_users[role as usize] += 1;
                (Side::User, role, user_journal)
            }
            EdgeDelta::Revoke { role, user } => {
                self.user_roles[user as usize] -= 1;
                self.role_users[role as usize] -= 1;
                (Side::User, role, user_journal)
            }
            EdgeDelta::Grant { role, permission } => {
                self.perm_roles[permission as usize] += 1;
                self.role_perms[role as usize] += 1;
                (Side::Permission, role, perm_journal)
            }
            EdgeDelta::Ungrant { role, permission } => {
                self.perm_roles[permission as usize] -= 1;
                self.role_perms[role as usize] -= 1;
                (Side::Permission, role, perm_journal)
            }
        };
        self.touch(side, role, journal);
        touched.insert((side, role));
        Ok(true)
    }

    /// Re-derives the T5 pairs of each `(side, role)` in `touched` from
    /// the current graph, noting the pair changes in `journal`.
    fn reprobe(
        &mut self,
        touched: &BTreeSet<(Side, u32)>,
        journal: Option<&mut Journal>,
        tally: &mut UpdateTally,
    ) {
        let similarity = self.config.similarity;
        let (mut user_log, mut perm_log) = match journal {
            Some(j) => (Some(&mut j.user_side.pairs), Some(&mut j.perm_side.pairs)),
            None => (None, None),
        };
        for &(side, role) in touched {
            let log = match side {
                Side::User => user_log.as_deref_mut(),
                Side::Permission => perm_log.as_deref_mut(),
            };
            let (state, index) = self.split(side);
            if let Some(sim) = &mut state.similar {
                sim.retouch(role, &index, &similarity, log);
                tally.reprobes += 1;
            }
        }
    }

    /// Records in `journal` the degrees `delta` is about to change and the
    /// bucket its role is about to leave (or, for `AddRole`, the empty-row
    /// bucket the new role joins). It runs before the graph changes, so
    /// the bucket's groups are verified against the rows they had. An
    /// entry already in the journal is kept: the first one holds the
    /// state before the batch.
    fn note_before(&self, delta: &EdgeDelta, journal: &mut Journal) {
        let (side, role, col) = match *delta {
            EdgeDelta::AddUser => {
                journal.users.entry(self.user_roles.len()).or_insert(None);
                return;
            }
            EdgeDelta::AddPermission => {
                journal.perms.entry(self.perm_roles.len()).or_insert(None);
                return;
            }
            EdgeDelta::AddRole => {
                journal.roles.entry(self.role_users.len()).or_insert(None);
                let empty = hash_indices(&[]);
                self.note_bucket(Side::User, empty, &mut journal.user_side);
                self.note_bucket(Side::Permission, empty, &mut journal.perm_side);
                return;
            }
            EdgeDelta::Assign { role, user } | EdgeDelta::Revoke { role, user } => {
                (Side::User, role as usize, user as usize)
            }
            EdgeDelta::Grant { role, permission } | EdgeDelta::Ungrant { role, permission } => {
                (Side::Permission, role as usize, permission as usize)
            }
        };
        // An unknown id fails the batch, and its journal with it.
        journal.roles.entry(role).or_insert_with(|| {
            let users = self.role_users.get(role).copied();
            users.zip(self.role_perms.get(role).copied())
        });
        let (cols, degrees, side_journal) = match side {
            Side::User => (&mut journal.users, &self.user_roles, &mut journal.user_side),
            Side::Permission => (&mut journal.perms, &self.perm_roles, &mut journal.perm_side),
        };
        cols.entry(col).or_insert_with(|| degrees.get(col).copied());
        if let Some(&sig) = self.side(side).sigs.get(role) {
            self.note_bucket(side, sig, side_journal);
        }
    }

    /// Records bucket `sig`'s verified groups on `side` unless the batch
    /// already dirtied it. Call it before the bucket changes.
    fn note_bucket(&self, side: Side, sig: RowSignature, journal: &mut SideJournal) {
        let split_rows = &mut journal.split_rows;
        journal.groups.entry(sig).or_insert_with(|| {
            self.groups(
                side,
                self.side(side).buckets.get_key_value(&sig),
                split_rows,
            )
        });
    }

    /// The maintained state of `side`.
    fn side(&self, side: Side) -> &SideState {
        match side {
            Side::User => &self.users,
            Side::Permission => &self.perms,
        }
    }

    /// `side`'s maintained state, beside that side of the graph as the
    /// T5 probe's inverted index.
    fn split(&mut self, side: Side) -> (&mut SideState, GraphSide<'_>) {
        let (state, col_degrees, norms) = match side {
            Side::User => (&mut self.users, &self.user_roles, &self.role_users),
            Side::Permission => (&mut self.perms, &self.perm_roles, &self.role_perms),
        };
        let index = GraphSide {
            graph: &self.graph,
            side,
            col_degrees,
            norms,
        };
        (state, index)
    }

    /// `side` of the graph as the T5 probe's inverted index.
    fn index(&self, side: Side) -> GraphSide<'_> {
        let (col_degrees, norms) = match side {
            Side::User => (&self.user_roles, &self.role_users),
            Side::Permission => (&self.perm_roles, &self.role_perms),
        };
        GraphSide {
            graph: &self.graph,
            side,
            col_degrees,
            norms,
        }
    }

    /// Re-keys `role`'s row on `side` after an edge flip, hashing the
    /// graph's adjacency in place. With a journal, the bucket the row is
    /// about to join is recorded first.
    fn touch(&mut self, side: Side, role: u32, journal: Option<&mut SideJournal>) {
        let index = self.index(side);
        let sig = hash_words(index.row(role).map(u64::from));
        let empty = index.row_norm(role) == 0;
        if let Some(j) = journal {
            self.note_bucket(side, sig, j);
        }
        match side {
            Side::User => self.users.touch(role, sig, empty),
            Side::Permission => self.perms.touch(role, sig, empty),
        }
    }

    /// Applies a whole delta stream in order, each delta as its own
    /// [`apply`](Self::apply). On an error the stream is partially applied
    /// (every delta before the failing one), and the maintained state
    /// stays consistent with the graph.
    pub fn apply_all(&mut self, stream: &[EdgeDelta]) -> rolediet_model::Result<()> {
        for delta in stream {
            self.apply(delta)?;
        }
        Ok(())
    }

    /// Applies a delta stream and returns which findings appeared and
    /// disappeared across the batch.
    ///
    /// The result equals [`ReportDelta::between`] of the reports before
    /// and after the batch, list order included, but neither report is
    /// built. While the batch applies, a journal records what its events
    /// touch: degrees before the batch, the verified groups of every
    /// signature bucket it dirties, and the net T5 pair changes. The T5
    /// pairs of each touched row are re-probed once, after the last
    /// event, however many of its events touched the row. Only the
    /// journal's entries are compared at the end, so the cost is
    /// `O(events + dirtied buckets + changed pairs)` on top of the events
    /// and one probe per touched row. A binding `max_pairs` adds a walk
    /// over the truncated pair prefix.
    ///
    /// On an error (unknown id) the stream is partially applied, as with
    /// [`apply_all`](Self::apply_all): the rows the applied events touched
    /// are re-probed first, so the state stays consistent with the graph,
    /// and no delta is returned.
    pub fn apply_batch(&mut self, stream: &[EdgeDelta]) -> rolediet_model::Result<ReportDelta> {
        self.apply_batch_counted(stream, &mut UpdateTally::default())
    }

    /// [`apply_batch`](Self::apply_batch), adding its work counts to
    /// `tally`.
    pub(crate) fn apply_batch_counted(
        &mut self,
        stream: &[EdgeDelta],
        tally: &mut UpdateTally,
    ) -> rolediet_model::Result<ReportDelta> {
        let mut journal = Journal::default();
        self.apply_deferred(stream, Some(&mut journal), tally)?;
        let delta = self.delta_since(&mut journal);
        tally.split_rows += journal.user_side.split_rows + journal.perm_side.split_rows;
        Ok(delta)
    }

    /// The batch's [`ReportDelta`]: [`ReportDelta::between`] over the two
    /// reports cut down to the entries `journal` touched. Every finding
    /// outside the cut is the same in both full reports, and the cut keeps
    /// report order, so the result equals `between` of the full reports.
    fn delta_since(&self, journal: &mut Journal) -> ReportDelta {
        let mut before = Report::default();
        let mut after = Report::default();
        push_degree_findings(
            &mut before,
            journal.users.iter().filter_map(|(&u, &d)| Some((u, d?))),
            journal.perms.iter().filter_map(|(&p, &d)| Some((p, d?))),
            journal.roles.iter().filter_map(|(&r, &d)| Some((r, d?))),
        );
        push_degree_findings(
            &mut after,
            journal.users.keys().map(|&u| (u, self.user_roles[u])),
            journal.perms.keys().map(|&p| (p, self.perm_roles[p])),
            journal
                .roles
                .keys()
                .map(|&r| (r, (self.role_users[r], self.role_perms[r]))),
        );
        (before.same_user_groups, after.same_user_groups) =
            self.touched_groups(Side::User, &mut journal.user_side);
        (before.same_permission_groups, after.same_permission_groups) =
            self.touched_groups(Side::Permission, &mut journal.perm_side);
        let max_pairs = self.config.similarity.max_pairs;
        (before.similar_user_pairs, after.similar_user_pairs) = self
            .users
            .touched_pairs(&journal.user_side.pairs, max_pairs);
        (
            before.similar_permission_pairs,
            after.similar_permission_pairs,
        ) = self
            .perms
            .touched_pairs(&journal.perm_side.pairs, max_pairs);
        ReportDelta::between(&before, &after)
    }

    /// The T4 groups of the buckets a batch dirtied on `side`, as
    /// `(before, after)` in report order: the recorded groups, and the
    /// same buckets split again now.
    fn touched_groups(
        &self,
        side: Side,
        journal: &mut SideJournal,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let buckets = &self.side(side).buckets;
        let mut before: Vec<Vec<usize>> = journal.groups.values().flatten().cloned().collect();
        before.sort_unstable_by_key(|group| group[0]);
        let after = self.groups(
            side,
            journal
                .groups
                .keys()
                .filter_map(|sig| buckets.get_key_value(sig)),
            &mut journal.split_rows,
        );
        (before, after)
    }

    /// The verified duplicate groups of the `(key, members)` buckets on
    /// `side`, in report order: the batch splitter checks members
    /// through the graph's own adjacency (groups sorted by first member,
    /// members ascending). Unless `include_empty_duplicates`, empty rows
    /// never reach the splitter: they could only form the empty-row
    /// group, which is not reported, so the empty row's bucket hands
    /// over only its collided rows, in O(1) however many roles are
    /// empty. `split_rows` counts the members handed to the splitter.
    fn groups<'a>(
        &self,
        side: Side,
        buckets: impl IntoIterator<Item = (&'a RowSignature, &'a BTreeSet<u32>)>,
        split_rows: &mut u64,
    ) -> Vec<Vec<usize>> {
        let state = self.side(side);
        let empty = (!self.config.include_empty_duplicates).then(|| hash_indices(&[]));
        let candidates: Vec<Vec<usize>> = buckets
            .into_iter()
            .map(|(sig, members)| match empty {
                Some(empty) if *sig == empty => &state.collided,
                _ => members,
            })
            .filter(|members| members.len() >= 2)
            .map(|members| members.iter().map(|&r| r as usize).collect())
            .collect();
        *split_rows += candidates
            .iter()
            .map(|members| members.len() as u64)
            .sum::<u64>();
        let g = &self.graph;
        let role = RoleId::from_index;
        match side {
            Side::User => split_buckets(&candidates, 1, |a, b| {
                g.users_of(role(a)).eq(g.users_of(role(b)))
            }),
            Side::Permission => split_buckets(&candidates, 1, |a, b| {
                g.permissions_of(role(a)).eq(g.permissions_of(role(b)))
            }),
        }
    }

    /// Assembles the current findings as a [`Report`]: T1–T3 from the
    /// degree counters, T4 from the verified signature buckets, T5 from
    /// the maintained ordered pair set. `timings` is zero (nothing was
    /// recomputed); `config` is the pipeline's configuration.
    pub fn report(&self) -> Report {
        let mut report = Report {
            config: self.config,
            ..Report::default()
        };
        push_degree_findings(
            &mut report,
            self.user_roles.iter().copied().enumerate(),
            self.perm_roles.iter().copied().enumerate(),
            self.role_users
                .iter()
                .copied()
                .zip(self.role_perms.iter().copied())
                .enumerate(),
        );
        report.same_user_groups = self.groups(Side::User, &self.users.buckets, &mut 0);
        report.same_permission_groups = self.groups(Side::Permission, &self.perms.buckets, &mut 0);
        if !self.config.skip_similarity {
            let max_pairs = self.config.similarity.max_pairs;
            report.similar_user_pairs = self.users.pairs(max_pairs);
            report.similar_permission_pairs = self.perms.pairs(max_pairs);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::report::StageTimings;

    /// Batch-vs-incremental comparison with timings normalized (the
    /// incremental report never spends wall-clock).
    fn assert_matches_batch(inc: &IncrementalPipeline, graph: &TripartiteGraph, tag: &str) {
        let got = inc.report();
        let mut want = Pipeline::new(*inc.config()).run(graph);
        want.timings = StageTimings::default();
        assert_eq!(got, want, "{tag}");
    }

    fn edit_script() -> Vec<EdgeDelta> {
        vec![
            EdgeDelta::AddUser, // user 4
            EdgeDelta::AddRole, // role 5
            EdgeDelta::Assign { role: 5, user: 4 },
            EdgeDelta::Grant {
                role: 5,
                permission: 0,
            },
            EdgeDelta::Revoke { role: 0, user: 0 }, // R01 loses its only user
            EdgeDelta::Ungrant {
                role: 2,
                permission: 3,
            }, // R03 goes fully standalone
            EdgeDelta::AddPermission,               // permission 6
            EdgeDelta::Grant {
                role: 1,
                permission: 6,
            },
            EdgeDelta::Assign { role: 1, user: 4 },
            EdgeDelta::Revoke { role: 3, user: 1 },
            // Make roles 1 and 3 diverge and re-converge on the user side.
            EdgeDelta::Revoke { role: 3, user: 2 },
            EdgeDelta::Assign { role: 3, user: 1 },
            EdgeDelta::Assign { role: 3, user: 2 },
        ]
    }

    #[test]
    fn incremental_pipeline_matches_batch_after_every_event() {
        // `usize::MAX` makes every row's prefix all of its columns; an
        // unclamped `t + 1` would overflow.
        for threshold in [1, usize::MAX] {
            for include_disjoint in [false, true] {
                for include_empty in [false, true] {
                    let config = DetectionConfig {
                        similarity: SimilarityConfig {
                            threshold,
                            include_disjoint,
                            ..SimilarityConfig::default()
                        },
                        include_empty_duplicates: include_empty,
                        ..DetectionConfig::default()
                    };
                    let graph = TripartiteGraph::figure1_example();
                    let mut inc = IncrementalPipeline::new(&graph, config);
                    let mut g = graph.clone();
                    let tag =
                        format!("t={threshold} disjoint={include_disjoint} empty={include_empty}");
                    assert_matches_batch(&inc, &g, &format!("initial {tag}"));
                    for (k, delta) in edit_script().iter().enumerate() {
                        inc.apply(delta).unwrap();
                        delta.apply(&mut g).unwrap();
                        assert_matches_batch(&inc, &g, &format!("event {k} {tag}"));
                    }
                    assert_eq!(inc.graph(), &g);
                }
            }
        }
    }

    #[test]
    fn noop_flips_and_errors_leave_state_consistent() {
        let graph = TripartiteGraph::figure1_example();
        let config = DetectionConfig::default();
        let mut inc = IncrementalPipeline::new(&graph, config);
        // No-op: the edge already exists.
        assert!(!inc.apply(&EdgeDelta::Assign { role: 0, user: 0 }).unwrap());
        // Error: unknown role id.
        assert!(inc.apply(&EdgeDelta::Assign { role: 99, user: 0 }).is_err());
        assert_matches_batch(&inc, &graph, "after no-op and error");
    }

    #[test]
    fn apply_batch_reports_finding_deltas() {
        let graph = TripartiteGraph::figure1_example();
        let mut inc = IncrementalPipeline::new(&graph, DetectionConfig::default());
        let delta = inc.apply_batch(&[]).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.change_count(), 0);
        // R01 loses its only user: U01 becomes standalone (T1 added),
        // R01 stops being a single-user role (T3 removed) and becomes
        // userless (T2 added).
        let delta = inc
            .apply_batch(&[EdgeDelta::Revoke { role: 0, user: 0 }])
            .unwrap();
        assert_eq!(delta.standalone_users.added, vec![0]);
        assert_eq!(delta.single_user_roles.removed, vec![0]);
        assert_eq!(delta.userless_roles.added, vec![0]);
        assert!(delta.same_user_groups.is_empty());
        assert!(!delta.is_empty());
        // Round-trip: ReportDelta::between of identical reports is empty.
        let r = inc.report();
        assert!(ReportDelta::between(&r, &r).is_empty());
        let json = serde_json::to_string(&delta).unwrap();
        let back: ReportDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn identical_streams_produce_identical_state() {
        let graph = TripartiteGraph::figure1_example();
        let config = DetectionConfig {
            similarity: SimilarityConfig {
                include_disjoint: true,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::default()
        };
        let mut a = IncrementalPipeline::new(&graph, config);
        let mut b = IncrementalPipeline::new(&graph, config);
        let script = edit_script();
        a.apply_all(&script).unwrap();
        b.apply_all(&script).unwrap();
        assert_eq!(a, b, "same stream must converge to identical state");
    }

    #[test]
    fn skip_similarity_maintains_no_pair_state() {
        let graph = TripartiteGraph::figure1_example();
        let config = DetectionConfig {
            skip_similarity: true,
            ..DetectionConfig::default()
        };
        let mut inc = IncrementalPipeline::new(&graph, config);
        assert!(inc.users.similar.is_none());
        let mut g = graph.clone();
        for delta in edit_script() {
            inc.apply(&delta).unwrap();
            delta.apply(&mut g).unwrap();
        }
        assert_matches_batch(&inc, &g, "skip_similarity");
        assert!(inc.report().similar_user_pairs.is_empty());
    }

    /// With `include_empty_duplicates` off, an empty row never reaches
    /// the duplicate splitter, so a batch that adds a role hands it the
    /// same rows whatever the size of the empty-row bucket. Here the
    /// batch dirties that bucket on both sides and moves R02 out of its
    /// duplicate bucket {R02, R04}: the splitter sees those two rows once.
    #[test]
    fn split_rows_do_not_grow_with_the_empty_row_bucket() {
        let split_rows = |empty_roles: usize| {
            let mut graph = TripartiteGraph::figure1_example();
            for _ in 0..empty_roles {
                graph.add_role();
            }
            let mut inc = IncrementalPipeline::new(&graph, DetectionConfig::default());
            let mut tally = UpdateTally::default();
            let batch = [EdgeDelta::AddRole, EdgeDelta::Assign { role: 1, user: 3 }];
            inc.apply_batch_counted(&batch, &mut tally).unwrap();
            tally.split_rows
        };
        assert_eq!(split_rows(10), 2);
        assert_eq!(split_rows(1_000), 2);
    }

    /// A batch re-probes each row it touched once, against the final
    /// graph. A clone burst (a new role, then every user and permission of
    /// its source) touches the new role on both sides, and an abandon
    /// burst (every user of one role revoked) touches one side: two and
    /// one re-probes, however many flips. `apply` is a batch of one, so
    /// it re-probes once per flip, and per side for the new role.
    #[test]
    fn batches_reprobe_each_touched_row_once() {
        let k = 8u32;
        let mut graph = TripartiteGraph::with_counts(12, 2, 12);
        for x in 0..k {
            graph.assign_user(RoleId(0), UserId(x)).unwrap();
            graph.grant_permission(RoleId(0), PermissionId(x)).unwrap();
        }
        graph.assign_user(RoleId(1), UserId(0)).unwrap();
        let mut clone = vec![EdgeDelta::AddRole];
        clone.extend((0..k).map(|user| EdgeDelta::Assign { role: 2, user }));
        clone.extend((0..k).map(|permission| EdgeDelta::Grant {
            role: 2,
            permission,
        }));
        let abandon: Vec<EdgeDelta> = (0..k)
            .map(|user| EdgeDelta::Revoke { role: 0, user })
            .collect();
        let config = DetectionConfig {
            similarity: SimilarityConfig {
                include_disjoint: true,
                ..SimilarityConfig::default()
            },
            ..DetectionConfig::default()
        };
        let mut batched = IncrementalPipeline::new(&graph, config);
        let mut single = batched.clone();
        let mut g = graph.clone();
        for (burst, batch_reprobes, apply_reprobes) in [
            (&clone, 2, 2 * u64::from(k) + 2),
            (&abandon, 1, u64::from(k)),
        ] {
            let mut tally = UpdateTally::default();
            batched.apply_batch_counted(burst, &mut tally).unwrap();
            assert_eq!(tally.reprobes, batch_reprobes);
            let mut tally = UpdateTally::default();
            for delta in burst {
                single.apply_counted(delta, &mut tally).unwrap();
                delta.apply(&mut g).unwrap();
            }
            assert_eq!(tally.reprobes, apply_reprobes);
            assert_eq!(batched, single);
            assert_matches_batch(&batched, &g, "burst");
        }
    }

    /// The probe's column bitmap and row marks grow with the graph: a
    /// batch adds roles, users and permissions past a 64-bit word in its
    /// middle, and its later flips land on the new ids; a third batch
    /// flips them again. After every batch the report equals a batch
    /// rerun and the delta the difference of the reruns.
    #[test]
    fn probe_buffers_grow_with_ids_added_mid_batch() {
        let new_ids = 70u32;
        let (last_user, last_perm) = (3 + new_ids, 5 + new_ids);
        // Warm the scratch at the figure's size on both sides.
        let mut batches = vec![vec![
            EdgeDelta::Assign { role: 1, user: 0 },
            EdgeDelta::Grant {
                role: 1,
                permission: 0,
            },
        ]];
        let n = new_ids as usize;
        let mut grow = vec![EdgeDelta::AddRole; 3];
        grow.extend(vec![EdgeDelta::AddUser; n]);
        grow.extend(vec![EdgeDelta::AddPermission; n]);
        grow.extend(vec![EdgeDelta::AddRole; n - 3]);
        // New role `5 + x` holds user `4 + x` and permission `6 + x` beside
        // the last new user and permission, which are all the last new
        // role holds: two new roles lie at distance 2, or 1 when one of
        // them is the last.
        for x in 0..new_ids {
            let role = 5 + x;
            grow.push(EdgeDelta::Assign { role, user: 4 + x });
            grow.push(EdgeDelta::Assign {
                role,
                user: last_user,
            });
            grow.push(EdgeDelta::Grant {
                role,
                permission: 6 + x,
            });
            grow.push(EdgeDelta::Grant {
                role,
                permission: last_perm,
            });
        }
        grow.push(EdgeDelta::Assign {
            role: 1,
            user: last_user,
        });
        batches.push(grow);
        batches.push(
            (0..new_ids)
                .step_by(3)
                .flat_map(|x| {
                    [
                        EdgeDelta::Revoke {
                            role: 5 + x,
                            user: last_user,
                        },
                        EdgeDelta::Ungrant {
                            role: 5 + x,
                            permission: 6 + x,
                        },
                    ]
                })
                .collect(),
        );
        for (threshold, include_disjoint) in [(1, false), (2, true)] {
            let config = DetectionConfig {
                similarity: SimilarityConfig {
                    threshold,
                    include_disjoint,
                    ..SimilarityConfig::default()
                },
                ..DetectionConfig::default()
            };
            let graph = TripartiteGraph::figure1_example();
            let mut inc = IncrementalPipeline::new(&graph, config);
            let mut g = graph.clone();
            let rerun = |g: &TripartiteGraph| {
                let mut report = Pipeline::new(config).run(g);
                report.timings = StageTimings::default();
                report
            };
            for (b, batch) in batches.iter().enumerate() {
                let before = rerun(&g);
                let delta = inc.apply_batch(batch).unwrap();
                EdgeDelta::replay(&mut g, batch).unwrap();
                let tag = format!("t={threshold} disjoint={include_disjoint} batch {b}");
                assert_matches_batch(&inc, &g, &tag);
                assert_eq!(delta, ReportDelta::between(&before, &rerun(&g)), "{tag}");
                if b == 1 {
                    // The last new role pairs with every other one.
                    let report = inc.report();
                    assert!(report.similar_user_pairs.len() >= n - 1);
                    assert!(report.similar_permission_pairs.len() >= n - 1);
                }
            }
        }
    }

    /// Non-empty rows whose key collides with the empty row's still reach
    /// the splitter: R02 and R04 (equal rows), forced into the empty
    /// row's bucket beside the empty R03 and R06, are reported as a group,
    /// and the empty roles only when empty duplicates are.
    #[test]
    fn rows_colliding_with_the_empty_key_are_still_split() {
        for include_empty in [false, true] {
            let config = DetectionConfig {
                include_empty_duplicates: include_empty,
                ..DetectionConfig::default()
            };
            let mut graph = TripartiteGraph::figure1_example();
            graph.add_role();
            let mut inc = IncrementalPipeline::new(&graph, config);
            for r in [1, 3] {
                inc.users.touch(r, hash_indices(&[]), false);
            }
            let mut want = vec![vec![1, 3]];
            if include_empty {
                want.push(vec![2, 5]);
            }
            assert_eq!(inc.report().same_user_groups, want, "empty={include_empty}");
        }
    }

    #[test]
    fn bucket_keys_are_the_batch_row_signatures() {
        // Each side keys every role exactly like the batch pass, and
        // widening the column space re-keys nothing.
        let check = |inc: &IncrementalPipeline, tag: &str| {
            let g = inc.graph();
            for (side, m) in [(&inc.users, g.ruam_sparse()), (&inc.perms, g.rpam_sparse())] {
                for r in 0..m.rows() {
                    let key = m.row_signature(r);
                    assert_eq!(side.sigs[r], key, "{tag}: role {r}");
                    assert!(side.buckets[&key].contains(&(r as u32)), "{tag}: role {r}");
                }
            }
        };
        let graph = TripartiteGraph::figure1_example();
        let mut inc = IncrementalPipeline::new(&graph, DetectionConfig::default());
        check(&inc, "new");
        inc.apply(&EdgeDelta::AddUser).unwrap();
        check(&inc, "AddUser");
        inc.apply(&EdgeDelta::AddPermission).unwrap();
        check(&inc, "AddPermission");
    }
}
