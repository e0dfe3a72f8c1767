//! HNSW — Hierarchical Navigable Small World graphs.
//!
//! A from-scratch implementation of Malkov & Yashunin (2018), the
//! *approximate clustering* baseline of the paper (there via the
//! `datasketch` library). Points are inserted into a stack of
//! progressively denser proximity graphs; queries greedily descend from
//! the sparse top layer and run a beam search (width `ef`) at layer 0.
//!
//! Approximate means *recall < 1 is possible*: a query can miss true
//! neighbours. The paper argues this is acceptable for RBAC cleanup
//! because the detector runs periodically and converges over runs; the
//! [`recall`](crate::recall) module measures exactly this trade-off.
//!
//! # Construction
//!
//! [`Hnsw::build`] is the textbook sequential insert: each node searches
//! the graph built so far and commits its links before the next node
//! starts. [`Hnsw::build_batched`] processes nodes in *generations*
//! instead: a generation of pending nodes runs its greedy-descent + beam
//! searches concurrently against the frozen graph of all previously
//! committed generations (phase 1, read-only), then a sequential commit
//! phase applies the recorded candidate lists in node-id order (phase 2).
//! A commit re-runs the search only when an earlier commit *within the
//! same generation* touched a link list the recorded search read (or
//! moved the entry point) — the bounded patch-up pass — so the final
//! graph is a pure function of `(points, params)`: bit-identical to the
//! sequential insert at every thread count and generation size (see
//! DESIGN.md §5 for the argument). At one thread it *is* the sequential
//! insert: phase 1 could only add searches there, since every plan is
//! searched once and again whenever it comes out dirty.
//!
//! Determinism: level draws come from a per-node splitmix64 stream keyed
//! on `(params.seed, node)`, so a node's level is independent of how
//! insertions are batched.
//!
//! Links are always chosen, and overfull lists always pruned, with the
//! diversity-aware selection of Algorithm 4 of the paper: a candidate is
//! kept only if it is closer to the node than to every neighbour already
//! kept. That preserves connectivity between distant clusters; plain
//! closest-first selection loses duplicate-role groups that sit far from
//! the bulk of the data. A pruned list is its kept links followed by the
//! rejected ones that pad it to capacity. Each link stores its distance
//! to the list's owner, and the index remembers where the kept prefix
//! ends. A backlink to a full list replays that record: only the
//! decisions the newcomer can change are re-checked, so the prune costs
//! a few distance calls instead of a fresh selection (DESIGN.md §5 has
//! the argument).
//!
//! Distances are integers (Hamming). The beam heaps and every candidate
//! list order `(distance, id)` pairs packed into one `u64`, distance in
//! the high half, which orders exactly as the pairs do.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::metric::PointSet;

/// A `(distance, id)` pair packed into one integer, distance in the high
/// half: keys order exactly as the pairs do, by distance and then by id
/// (ids fit `u32`, as the link lists store them).
fn key(d: u32, id: usize) -> u64 {
    (u64::from(d) << 32) | id as u64
}

/// The id half of a [`key`].
fn key_id(k: u64) -> usize {
    (k & u64::from(u32::MAX)) as usize
}

/// The distance half of a [`key`].
fn key_dist(k: u64) -> u32 {
    (k >> 32) as u32
}

/// What the last Algorithm-4 selection over a link list decided for one
/// of its links (see [`Hnsw::select_neighbors_heuristic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prior {
    /// Not decided: a beam candidate, a newcomer, or a link of a list
    /// with no kept record.
    Unknown,
    /// Kept by the last selection.
    Kept,
    /// Rejected by the last selection.
    Rejected,
}

/// HNSW hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HnswParams {
    /// Maximum number of links per node on layers above 0; layer 0 allows
    /// `2 * m`.
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Default beam width while searching (can be overridden per query).
    pub ef_search: usize,
    /// Seed for the per-node level-assignment streams.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            ef_construction: 200,
            ef_search: 64,
            seed: 0xD1E7,
        }
    }
}

/// Epoch-stamped visited marks for [`Hnsw::search_layer_in`], reused
/// across searches. Replaces a fresh `vec![false; n]` per beam search —
/// an O(n) allocation + memset that dominated build time on large
/// indexes (O(n²) bytes touched over a whole build).
#[derive(Debug, Clone, Default)]
struct SearchScratch {
    visited: Vec<u32>,
    epoch: u32,
}

impl SearchScratch {
    /// Starts a new search: all marks become stale at once.
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear stale marks once every 2^32 searches.
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
    }

    /// Marks `i` visited; returns `true` on the first visit this search.
    fn visit(&mut self, i: usize) -> bool {
        if self.visited[i] == self.epoch {
            false
        } else {
            self.visited[i] = self.epoch;
            true
        }
    }
}

/// Epoch-stamped per-layer dirty marks for the batched build's commit
/// phase: `(node, layer)` is dirty ⇔ the *bytes* of `links[node][layer]`
/// changed during the current generation's commits. Marking is exact —
/// a backlink push whose post-shrink list comes out byte-identical (the
/// routine case once a duplicate-cluster hub saturates and the diversity
/// heuristic rejects newcomers) marks nothing, and a layer-0 write never
/// invalidates an upper-layer read. Layers ≥ 32 share bit 31
/// (conservative; levels that high do not occur in practice).
#[derive(Debug, Clone)]
struct DirtyMarks {
    /// Last generation that touched node `i` (lazy mask reset).
    stamps: Vec<u32>,
    /// Layer bits of node `i`, valid only while `stamps[i] == generation`.
    masks: Vec<u32>,
    generation: u32,
}

/// Encodes a `(node, layer)` link-list read for [`InsertPlan::reads`].
fn encode_read(node: usize, layer: usize) -> u64 {
    ((node as u64) << 5) | layer.min(31) as u64
}

impl DirtyMarks {
    /// Marks nothing and reports nothing dirty (the sequential build,
    /// where no speculative plan ever consults the marks).
    fn disabled() -> Self {
        DirtyMarks {
            stamps: Vec::new(),
            masks: Vec::new(),
            generation: 0,
        }
    }

    fn sized(n: usize) -> Self {
        DirtyMarks {
            stamps: vec![0; n],
            masks: vec![0; n],
            generation: 0,
        }
    }

    /// Starts the next generation: all marks become clean at once.
    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    fn mark(&mut self, i: usize, layer: usize) {
        let Some(s) = self.stamps.get_mut(i) else {
            return;
        };
        if *s != self.generation {
            *s = self.generation;
            self.masks[i] = 0;
        }
        self.masks[i] |= 1u32 << layer.min(31);
    }

    /// Checks one encoded `(node, layer)` read (see [`encode_read`]).
    fn is_dirty_read(&self, read: u64) -> bool {
        let i = (read >> 5) as usize;
        self.stamps.get(i).is_some_and(|&s| s == self.generation)
            && self.masks[i] & (1u32 << (read & 31)) != 0
    }
}

/// Phase-1 product of the batched build: one pending node's candidate
/// lists, computed speculatively against the frozen graph, plus the ids
/// whose link lists the searches read (the conflict set the phase-2
/// commit checks against [`DirtyMarks`]).
#[derive(Debug, Clone)]
struct InsertPlan {
    node: usize,
    level: usize,
    /// Beam results per shared layer as ascending keys, in search order
    /// (top shared layer first — the order the sequential insert
    /// processes them).
    nearest_per_layer: Vec<Vec<u64>>,
    /// Every `(node, layer)` link list the greedy descent or a beam
    /// search iterated ([`encode_read`]), sorted and deduplicated.
    reads: Vec<u64>,
}

/// A built HNSW index over the points `0..n` of some [`PointSet`].
///
/// The index stores the graph and each link's distance to its owner;
/// every other distance is computed against the point set on demand, so
/// the same index type serves scalar and packed rows.
///
/// # Examples
///
/// ```
/// use rolediet_cluster::hnsw::{Hnsw, HnswParams};
/// use rolediet_cluster::metric::PackedPointSet;
/// use rolediet_matrix::CsrMatrix;
///
/// // 100 points on a line, thermometer-coded: row i sets columns 0..i,
/// // so rows i and j lie |i - j| apart.
/// let rows: Vec<Vec<usize>> = (0..100).map(|i| (0..i).collect()).collect();
/// let m = CsrMatrix::from_rows_of_indices(100, 99, &rows).unwrap();
/// let pts = PackedPointSet::from_matrix(&m, 1);
/// let index = Hnsw::build(&pts, HnswParams::default());
/// let hits = index.knn_by_index(&pts, 50, 3, 64);
/// assert_eq!(hits[0].0, 50); // the query itself at distance 0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hnsw {
    params: HnswParams,
    /// links[node][layer] → neighbour ids; a node exists on layers
    /// `0..=levels[node]`.
    links: Vec<Vec<Vec<u32>>>,
    /// dists[node][layer][i] → the distance from `node` to
    /// `links[node][layer][i]`, kept with the link so a prune reads it
    /// instead of recomputing it.
    dists: Vec<Vec<Vec<u32>>>,
    /// kept[node][layer] → when the last write to `links[node][layer]`
    /// was a prune's Algorithm-4 selection, the length of the kept prefix
    /// it selected; `None` after any other write.
    kept: Vec<Vec<Option<u32>>>,
    levels: Vec<usize>,
    entry: Option<usize>,
    max_level: usize,
}

impl Hnsw {
    /// Builds an index over all points of `points`, inserting one node at
    /// a time in index order — the sequential oracle the batched build is
    /// asserted against.
    ///
    /// # Panics
    ///
    /// Panics if `params.m < 2`.
    pub fn build<P: PointSet>(points: &P, params: HnswParams) -> Self {
        assert!(params.m >= 2, "m must be at least 2");
        let mut index = Hnsw::empty(params, points.len());
        let ml = 1.0 / (params.m as f64).ln();
        let mut scratch = SearchScratch::default();
        let mut dirty = DirtyMarks::disabled();
        for node in 0..points.len() {
            let level = Self::level_for(params.seed, node, ml);
            index.insert(points, node, level, &mut scratch, &mut dirty);
        }
        index
    }

    /// Builds the same index as [`Hnsw::build`] — bit-identical `links`,
    /// `levels` and `entry` — through the two-phase batched algorithm:
    /// generations of `batch` pending nodes search the frozen graph
    /// concurrently on `threads` workers, then commit sequentially in
    /// node-id order, re-running a search only where an earlier commit of
    /// the same generation invalidated it.
    ///
    /// `batch == 0` falls back to the sequential insert (the test
    /// oracle), and so does `threads <= 1`: with one worker the
    /// speculative phase only adds searches, since each plan is searched
    /// once and again when an earlier commit dirtied it. The output is
    /// independent of both `batch` and `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.m < 2`.
    pub fn build_batched<P: PointSet + Sync>(
        points: &P,
        params: HnswParams,
        batch: usize,
        threads: usize,
    ) -> Self {
        if batch == 0 || threads <= 1 {
            return Self::build(points, params);
        }
        assert!(params.m >= 2, "m must be at least 2");
        let n = points.len();
        let mut index = Hnsw::empty(params, n);
        let ml = 1.0 / (params.m as f64).ln();
        let mut scratch = SearchScratch::default();
        let mut dirty = DirtyMarks::sized(n);
        let mut start = 0usize;
        while start < n {
            dirty.next_generation();
            let len = batch.min(n - start);
            // Phase 1 — speculative search: every pending node of the
            // generation runs its greedy descent + beam searches against
            // the frozen graph, concurrently and read-only (results join
            // in range order, so the plan list is thread-count
            // independent).
            let plans: Vec<InsertPlan> =
                rolediet_matrix::parallel::par_map_rows(len, threads, |range| {
                    let mut scratch = SearchScratch::default();
                    range
                        .map(|k| {
                            let node = start + k;
                            let level = Self::level_for(params.seed, node, ml);
                            index.plan_insert(points, node, level, &mut scratch)
                        })
                        .collect()
                });
            // Phase 2 — sequential commit in node-id order. A plan is
            // applied verbatim only when the sequential insert would
            // provably have recomputed it: the entry point is where the
            // speculation left it and no link list the speculation read
            // was touched by an earlier commit of this generation.
            let frozen_entry = index.entry;
            let frozen_max = index.max_level;
            for plan in &plans {
                let clean = index.entry == frozen_entry
                    && index.max_level == frozen_max
                    && plan.reads.iter().all(|&r| !dirty.is_dirty_read(r));
                if clean {
                    index.apply_plan(points, plan, &mut dirty);
                } else {
                    // Patch-up: re-run the genuine sequential insert for
                    // this node (its searches now also see the nodes
                    // committed earlier in this generation).
                    index.insert(points, plan.node, plan.level, &mut scratch, &mut dirty);
                }
            }
            start += len;
        }
        index
    }

    fn empty(params: HnswParams, capacity: usize) -> Self {
        Hnsw {
            params,
            links: Vec::with_capacity(capacity),
            dists: Vec::with_capacity(capacity),
            kept: Vec::with_capacity(capacity),
            levels: Vec::with_capacity(capacity),
            entry: None,
            max_level: 0,
        }
    }

    /// Appends `node` with empty link lists on layers `0..=level`.
    fn push_node(&mut self, level: usize) {
        self.links.push(vec![Vec::new(); level + 1]);
        self.dists.push(vec![Vec::new(); level + 1]);
        self.kept.push(vec![None; level + 1]);
        self.levels.push(level);
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> HnswParams {
        self.params
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Link lists: `links()[node][layer]` are the neighbour ids of
    /// `node` on `layer` (exposed for oracle-identity tests and benches).
    pub fn links(&self) -> &[Vec<Vec<u32>>] {
        &self.links
    }

    /// Top layer of each node.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// The entry point of the top layer, if any node is indexed.
    pub fn entry(&self) -> Option<usize> {
        self.entry
    }

    /// The highest occupied layer.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Level draw for `node`: an exponential draw from a per-node
    /// stream keyed on `(seed, node)` through the splitmix64 finalizer,
    /// so levels are a pure function of the node id — independent of
    /// insertion order and batching.
    fn level_for(seed: u64, node: usize, ml: f64) -> usize {
        let mut z = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut rng = StdRng::seed_from_u64(z ^ (z >> 31));
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        ((-u.ln()) * ml).floor() as usize
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// The sequential insert: search the current graph layer by layer and
    /// commit links as each layer's beam completes. Mutations are
    /// recorded in `dirty` so the batched build can detect conflicts.
    fn insert<P: PointSet>(
        &mut self,
        points: &P,
        node: usize,
        level: usize,
        scratch: &mut SearchScratch,
        dirty: &mut DirtyMarks,
    ) {
        self.push_node(level);
        let Some(entry) = self.entry else {
            self.entry = Some(node);
            self.max_level = level;
            return;
        };
        let dist = |j: usize| points.distance(node, j);
        let mut ep = entry;
        // Greedy descent through layers above the node's level.
        let top = self.max_level;
        for layer in ((level + 1)..=top).rev() {
            ep = self.greedy_closest(&dist, ep, layer, None);
        }
        // Beam insert on the shared layers. A layer's pushes only touch
        // that layer's link lists, so they never perturb the searches of
        // the layers below — the isolation property the batched build's
        // speculative phase relies on.
        for layer in (0..=level.min(top)).rev() {
            let nearest = self.search_layer_in(
                &dist,
                &[ep],
                self.params.ef_construction,
                layer,
                scratch,
                None,
            );
            if let Some(best) = self.commit_layer(points, node, layer, &nearest, dirty) {
                ep = best;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(node);
        }
    }

    /// The read-only half of [`Hnsw::insert`], run against the frozen
    /// graph: records each shared layer's beam result and every link list
    /// the searches iterated.
    fn plan_insert<P: PointSet>(
        &self,
        points: &P,
        node: usize,
        level: usize,
        scratch: &mut SearchScratch,
    ) -> InsertPlan {
        let mut plan = InsertPlan {
            node,
            level,
            nearest_per_layer: Vec::new(),
            reads: Vec::new(),
        };
        let Some(entry) = self.entry else {
            return plan;
        };
        let dist = |j: usize| points.distance(node, j);
        let mut ep = entry;
        let top = self.max_level;
        for layer in ((level + 1)..=top).rev() {
            ep = self.greedy_closest(&dist, ep, layer, Some(&mut plan.reads));
        }
        for layer in (0..=level.min(top)).rev() {
            let nearest = self.search_layer_in(
                &dist,
                &[ep],
                self.params.ef_construction,
                layer,
                scratch,
                Some(&mut plan.reads),
            );
            if let Some(&best) = nearest.first() {
                ep = key_id(best);
            }
            plan.nearest_per_layer.push(nearest);
        }
        plan.reads.sort_unstable();
        plan.reads.dedup();
        plan
    }

    /// The commit half of [`Hnsw::insert`] fed from a recorded plan (the
    /// batched build's fast path). Sound exactly when the conflict check
    /// passed: the entry point is unchanged and no list the plan read is
    /// dirty, so by induction over the search's heap operations the
    /// sequential insert's searches would reproduce
    /// `plan.nearest_per_layer` verbatim — a live beam can only reach a
    /// node committed earlier in the generation through a mutated (hence
    /// dirty, hence excluded) link list.
    fn apply_plan<P: PointSet>(&mut self, points: &P, plan: &InsertPlan, dirty: &mut DirtyMarks) {
        self.push_node(plan.level);
        if self.entry.is_none() {
            self.entry = Some(plan.node);
            self.max_level = plan.level;
            return;
        }
        let top = self.max_level;
        for (nearest, layer) in plan
            .nearest_per_layer
            .iter()
            .zip((0..=plan.level.min(top)).rev())
        {
            self.commit_layer(points, plan.node, layer, nearest, dirty);
        }
        if plan.level > self.max_level {
            self.max_level = plan.level;
            self.entry = Some(plan.node);
        }
    }

    /// One layer of the insert's commit half: choose `node`'s links among
    /// `nearest` (ascending keys), push them bidirectionally, trim
    /// overfull neighbour lists, and return the next layer's entry point.
    /// A neighbour list is marked dirty only when its stored bytes change
    /// — precisely the condition under which a concurrent speculative
    /// read could have diverged (the marks are disabled in the
    /// sequential build).
    fn commit_layer<P: PointSet>(
        &mut self,
        points: &P,
        node: usize,
        layer: usize,
        nearest: &[u64],
        dirty: &mut DirtyMarks,
    ) -> Option<usize> {
        let candidates = nearest.iter().map(|&c| (c, Prior::Unknown));
        let (chosen, _) = Self::select_neighbors_heuristic(points, candidates, self.params.m);
        for &c in &chosen {
            let (nb, d) = (key_id(c), key_dist(c));
            self.links[node][layer].push(nb as u32);
            self.dists[node][layer].push(d);
            if self.push_backlink(points, nb, layer, node, d) {
                dirty.mark(nb, layer);
            }
        }
        nearest.first().map(|&best| key_id(best))
    }

    /// Algorithm 4 of the HNSW paper: scan candidates in ascending key
    /// order (distance to the base node, then id), keeping one only if
    /// it is closer to the base than to every link already kept, then
    /// pad with the nearest rejected candidates if fewer than `m`
    /// survive. Returns the links, as keys, and how many of them lead as
    /// kept (the rest is padding).
    ///
    /// A candidate's [`Prior`] is what the last selection over the same
    /// list decided for it (the `Kept` and `Rejected` candidates must be
    /// exactly the links that selection stored), and re-selecting a
    /// list's own links returns it unchanged (DESIGN.md §5). So an old
    /// kept link is checked only against the links this scan newly kept,
    /// since the others did not dominate it before; an old rejected link
    /// stays rejected without a check while every old kept link scanned
    /// before it is still kept, since its dominator is among them.
    /// `Unknown` candidates are checked against every kept link, so a
    /// scan of `Unknown`s alone is the plain selection.
    fn select_neighbors_heuristic<P: PointSet>(
        points: &P,
        candidates: impl IntoIterator<Item = (u64, Prior)>,
        m: usize,
    ) -> (Vec<u64>, usize) {
        // Whether a link in `kept` lies closer to `c` than the base does.
        let dominated = |c: u64, kept: &[u64]| {
            let (id, d) = (key_id(c), key_dist(c));
            kept.iter().any(|&k| points.distance(id, key_id(k)) < d)
        };
        let mut kept: Vec<u64> = Vec::with_capacity(m);
        let mut newly_kept: Vec<u64> = Vec::new();
        let mut rejected: Vec<u64> = Vec::new();
        let mut lost_kept = false;
        for (c, prior) in candidates {
            if kept.len() >= m {
                break;
            }
            let keep = match prior {
                Prior::Unknown => !dominated(c, &kept),
                Prior::Kept => !dominated(c, &newly_kept),
                Prior::Rejected => lost_kept && !dominated(c, &kept),
            };
            if keep {
                kept.push(c);
                if prior != Prior::Kept {
                    newly_kept.push(c);
                }
            } else {
                rejected.push(c);
                lost_kept |= prior == Prior::Kept;
            }
        }
        let n_kept = kept.len();
        kept.extend(rejected.into_iter().take(m - n_kept));
        (kept, n_kept)
    }

    /// Pushes the backlink `x`, at distance `d_x` from `node`, onto
    /// `node`'s list on `layer` and trims the list back to capacity with
    /// Algorithm 4 (as in hnswlib, which prunes with the same heuristic
    /// it selects with; plain closest-first pruning is what orphans
    /// nodes inside duplicate-heavy clusters). Returns whether the stored
    /// links changed.
    ///
    /// A full list with a kept record that does not hold `x` replays the
    /// record: its links enter the selection in key order with their
    /// recorded decisions, and `x` in its place. Every other full list (a
    /// fresh node's own, one filled by raw pushes, one already holding
    /// `x`) is re-selected in full. Either way the base distances are the
    /// stored ones.
    fn push_backlink<P: PointSet>(
        &mut self,
        points: &P,
        node: usize,
        layer: usize,
        x: usize,
        d_x: u32,
    ) -> bool {
        let cap = self.max_links(layer);
        let ids = &mut self.links[node][layer];
        let dists = &mut self.dists[node][layer];
        if ids.len() < cap {
            // Below capacity the push lands verbatim; the list is no
            // longer a selection.
            ids.push(x as u32);
            dists.push(d_x);
            self.kept[node][layer] = None;
            return true;
        }
        let old = ids
            .iter()
            .zip(dists.iter())
            .map(|(&id, &d)| key(d, id as usize));
        let x_key = key(d_x, x);
        let (list, kept) = match self.kept[node][layer] {
            Some(n_kept) if !ids.contains(&(x as u32)) => {
                // The last selection kept the first `n_kept` links.
                let prior = |i| {
                    if i < n_kept as usize {
                        Prior::Kept
                    } else {
                        Prior::Rejected
                    }
                };
                let mut candidates: Vec<(u64, Prior)> = old
                    .enumerate()
                    .map(|(i, k)| (k, prior(i)))
                    .chain([(x_key, Prior::Unknown)])
                    .collect();
                candidates.sort_unstable_by_key(|&(k, _)| k);
                let (list, n_kept) = Self::select_neighbors_heuristic(points, candidates, cap);
                (list, u32::try_from(n_kept).ok())
            }
            _ => {
                // Dedup first (a repeated backlink adds nothing; equal
                // ids carry equal distances, so equal keys), then keep
                // `cap` links in ascending key order of scan.
                let mut keys: Vec<u64> = old.chain([x_key]).collect();
                keys.sort_unstable();
                keys.dedup();
                if keys.len() <= cap {
                    keys.sort_unstable_by_key(|&k| key_id(k));
                    (keys, None)
                } else {
                    let candidates = keys.iter().map(|&k| (k, Prior::Unknown));
                    let (list, n_kept) = Self::select_neighbors_heuristic(points, candidates, cap);
                    (list, u32::try_from(n_kept).ok())
                }
            }
        };
        self.kept[node][layer] = kept;
        let changed = !list
            .iter()
            .map(|&k| key_id(k) as u32)
            .eq(ids.iter().copied());
        if changed {
            ids.clear();
            ids.extend(list.iter().map(|&k| key_id(k) as u32));
            dists.clear();
            dists.extend(list.iter().map(|&k| key_dist(k)));
        }
        changed
    }

    /// Greedy walk on one layer to the locally closest node to the query.
    /// When `reads` is given, every node whose link list the walk scans
    /// is recorded.
    fn greedy_closest(
        &self,
        dist: &impl Fn(usize) -> u32,
        mut ep: usize,
        layer: usize,
        mut reads: Option<&mut Vec<u64>>,
    ) -> usize {
        let mut best = dist(ep);
        loop {
            if let Some(r) = reads.as_deref_mut() {
                r.push(encode_read(ep, layer));
            }
            let mut improved = false;
            for &nb in &self.links[ep][layer] {
                let d = dist(nb as usize);
                if d < best {
                    best = d;
                    ep = nb as usize;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search on one layer. Returns up to `ef` nodes as keys in
    /// ascending order. When `reads` is given, every node whose link
    /// list the beam iterates is recorded.
    fn search_layer_in(
        &self,
        dist: &impl Fn(usize) -> u32,
        entry_points: &[usize],
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        mut reads: Option<&mut Vec<u64>>,
    ) -> Vec<u64> {
        scratch.begin(self.links.len());
        // candidates: min-heap by key; results: max-heap by key.
        let mut candidates: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut results: BinaryHeap<u64> = BinaryHeap::new();
        for &ep in entry_points {
            if !scratch.visit(ep) {
                continue;
            }
            let k = key(dist(ep), ep);
            candidates.push(Reverse(k));
            results.push(k);
        }
        while let Some(Reverse(c)) = candidates.pop() {
            // The stop and admit tests compare distances alone, not keys.
            if let Some(&worst) = results.peek() {
                if results.len() >= ef && key_dist(c) > key_dist(worst) {
                    break;
                }
            }
            let node = key_id(c);
            if layer < self.links[node].len() {
                if let Some(r) = reads.as_deref_mut() {
                    r.push(encode_read(node, layer));
                }
                for &nb in &self.links[node][layer] {
                    let nb = nb as usize;
                    if !scratch.visit(nb) {
                        continue;
                    }
                    let d = dist(nb);
                    if results.len() < ef || results.peek().is_some_and(|&w| d < key_dist(w)) {
                        let k = key(d, nb);
                        candidates.push(Reverse(k));
                        results.push(k);
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        let mut out = results.into_vec();
        out.sort_unstable();
        out
    }

    /// The search behind [`knn_by_index`](Self::knn_by_index): `dist(j)`
    /// is the distance from indexed point `query` to point `j`.
    fn search_internal(
        &self,
        dist: impl Fn(usize) -> u32,
        k: usize,
        ef: usize,
        query: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<(usize, u32)> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        let mut ep = entry;
        for layer in (1..=self.max_level).rev() {
            ep = self.greedy_closest(&dist, ep, layer, None);
        }
        let hits = self.search_layer_in(&dist, &[ep, query], ef.max(k), 0, scratch, None);
        hits.into_iter()
            .take(k)
            .map(|hit| (key_id(hit), key_dist(hit)))
            .collect()
    }

    /// Approximate k-NN of an indexed point (the point itself is always
    /// the first hit at distance 0).
    ///
    /// Besides the usual entry-point descent, the layer-0 beam is also
    /// seeded *at the query node itself*. Aggressive link pruning can
    /// leave a node with no incoming links (a known HNSW failure mode,
    /// especially on data with many exact duplicates — precisely the RBAC
    /// case); since self-queries know the node's id, starting there too
    /// restores its out-neighbourhood at zero cost.
    ///
    /// # Panics
    ///
    /// Panics if `query >= points.len()`.
    pub fn knn_by_index<P: PointSet>(
        &self,
        points: &P,
        query: usize,
        k: usize,
        ef: usize,
    ) -> Vec<(usize, u32)> {
        assert!(query < points.len(), "query index out of range");
        let mut scratch = SearchScratch::default();
        self.search_internal(|j| points.distance(query, j), k, ef, query, &mut scratch)
    }

    /// [`knn_by_index`](Self::knn_by_index) for every indexed point, with
    /// the queries split over `threads` workers via
    /// [`parallel`](rolediet_matrix::parallel).
    ///
    /// The probe phase is read-only, so result `q` is exactly what
    /// `knn_by_index(points, q, k, ef)` returns — for every thread count.
    /// Each worker reuses one visited-marks scratch across its queries.
    pub fn knn_batch<P: PointSet + Sync>(
        &self,
        points: &P,
        k: usize,
        ef: usize,
        threads: usize,
    ) -> Vec<Vec<(usize, u32)>> {
        rolediet_matrix::parallel::par_map_rows(self.len(), threads, |range| {
            let mut scratch = SearchScratch::default();
            range
                .map(|q| self.search_internal(|j| points.distance(q, j), k, ef, q, &mut scratch))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::fixtures::thermometer;
    use crate::metric::{BinaryRows, PackedPointSet};
    use crate::neighbors::knn as exact_knn;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rolediet_matrix::CsrMatrix;

    fn grid_points(n: usize) -> PackedPointSet {
        // n points on a line — easy geometry with unambiguous neighbours.
        let points: Vec<[usize; 1]> = (0..n).map(|i| [i]).collect();
        thermometer(&points)
    }

    #[test]
    fn empty_and_singleton() {
        let pts = thermometer::<1>(&[]);
        let idx = Hnsw::build(&pts, HnswParams::default());
        assert!(idx.is_empty());

        let one = thermometer(&[[1]]);
        let idx = Hnsw::build(&one, HnswParams::default());
        assert_eq!(idx.len(), 1);
        let hits = idx.knn_by_index(&one, 0, 5, 16);
        assert_eq!(hits, vec![(0, 0)]);
    }

    #[test]
    fn finds_self_and_true_neighbours_on_line() {
        let pts = grid_points(200);
        let idx = Hnsw::build(&pts, HnswParams::default());
        for q in [0usize, 17, 99, 199] {
            let hits = idx.knn_by_index(&pts, q, 3, 64);
            assert_eq!(hits[0], (q, 0), "self is the closest hit");
            let approx: Vec<usize> = hits.iter().skip(1).map(|&(i, _)| i).collect();
            let exact: Vec<usize> = exact_knn(&pts, q, 2).into_iter().map(|(i, _)| i).collect();
            // On this trivial geometry the index should be exact.
            assert_eq!(approx, exact, "query {q}");
        }
    }

    #[test]
    fn high_recall_on_random_binary_rows() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let rows: Vec<Vec<usize>> = (0..300)
            .map(|_| {
                (0..64)
                    .filter(|_| rng.gen_bool(0.2))
                    .collect::<Vec<usize>>()
            })
            .collect();
        let m = CsrMatrix::from_rows_of_indices(300, 64, &rows).unwrap();
        let pts = BinaryRows::new(&m);
        let idx = Hnsw::build(&pts, HnswParams::default());
        let mut found = 0usize;
        let mut total = 0usize;
        for q in 0..300 {
            let exact: std::collections::HashSet<usize> =
                exact_knn(&pts, q, 5).into_iter().map(|(i, _)| i).collect();
            let approx: std::collections::HashSet<usize> = idx
                .knn_by_index(&pts, q, 6, 128)
                .into_iter()
                .map(|(i, _)| i)
                .filter(|&i| i != q)
                .collect();
            // Compare by distance values (ties make identity comparisons flaky).
            let kth = exact_knn(&pts, q, 5).last().map(|&(_, d)| d).unwrap();
            total += exact.len();
            found += approx
                .iter()
                .filter(|&&i| pts.distance(q, i) <= kth)
                .count()
                .min(exact.len());
        }
        let recall = found as f64 / total as f64;
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn duplicate_points_are_found_at_distance_zero() {
        // The paper's use case: identical role rows must surface as
        // 0-distance neighbours.
        let m = CsrMatrix::from_rows_of_indices(
            6,
            8,
            &[
                vec![0, 1],
                vec![2],
                vec![0, 1],
                vec![3, 4, 5],
                vec![0, 1],
                vec![6],
            ],
        )
        .unwrap();
        let pts = BinaryRows::new(&m);
        let idx = Hnsw::build(&pts, HnswParams::default());
        let hits = idx.knn_by_index(&pts, 0, 6, 32);
        let zero_hits: std::collections::HashSet<usize> = hits
            .iter()
            .filter(|&&(_, d)| d == 0)
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(zero_hits, [0usize, 2, 4].into_iter().collect());
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = grid_points(100);
        let a = Hnsw::build(&pts, HnswParams::default());
        let b = Hnsw::build(&pts, HnswParams::default());
        for q in 0..100 {
            assert_eq!(
                a.knn_by_index(&pts, q, 4, 32),
                b.knn_by_index(&pts, q, 4, 32)
            );
        }
    }

    #[test]
    fn batched_build_is_bit_identical_to_sequential() {
        // Line geometry plus duplicate-heavy binary rows, across batch
        // sizes and thread counts — the whole index must match the
        // sequential oracle, not just query results.
        let pts = grid_points(150);
        let oracle = Hnsw::build(&pts, HnswParams::default());
        for batch in [1usize, 3, 7, 64, 200] {
            for threads in [1usize, 2, 4, 8] {
                let got = Hnsw::build_batched(&pts, HnswParams::default(), batch, threads);
                assert_eq!(got, oracle, "batch={batch} threads={threads}");
            }
        }

        let rows: Vec<Vec<usize>> = (0..120)
            .map(|i| match i % 4 {
                0 => vec![0, 1],
                1 => vec![2, 3, 5],
                2 => vec![0, 1], // duplicates of the i % 4 == 0 rows
                _ => vec![i % 17],
            })
            .collect();
        let m = CsrMatrix::from_rows_of_indices(120, 17, &rows).unwrap();
        let pts = PackedPointSet::from_matrix(&m, 2);
        let oracle = Hnsw::build(&pts, HnswParams::default());
        for batch in [1usize, 7, 64] {
            for threads in [1usize, 2, 8] {
                let got = Hnsw::build_batched(&pts, HnswParams::default(), batch, threads);
                assert_eq!(got, oracle, "batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn batch_zero_is_the_sequential_baseline() {
        let pts = grid_points(80);
        assert_eq!(
            Hnsw::build_batched(&pts, HnswParams::default(), 0, 8),
            Hnsw::build(&pts, HnswParams::default())
        );
    }

    #[test]
    fn levels_come_from_per_node_streams() {
        // A node's level depends only on (seed, node id): building over
        // fewer or more points never changes the level of a shared id.
        let small = Hnsw::build(&grid_points(20), HnswParams::default());
        let large = Hnsw::build(&grid_points(90), HnswParams::default());
        assert_eq!(small.levels(), &large.levels()[..20]);
        // Regression pin for the stream itself (seed 0xD1E7, m = 16):
        // a shared-RNG draw sequence would shift whenever insertion
        // batching changed; the keyed stream cannot.
        let ml = 1.0 / 16f64.ln();
        let levels: Vec<usize> = (0..10).map(|n| Hnsw::level_for(0xD1E7, n, ml)).collect();
        assert_eq!(levels, large.levels()[..10]);
        let again: Vec<usize> = (0..10).map(|n| Hnsw::level_for(0xD1E7, n, ml)).collect();
        assert_eq!(levels, again);
        // Different seeds give different streams.
        let other: Vec<usize> = (0..64).map(|n| Hnsw::level_for(1, n, ml)).collect();
        let base: Vec<usize> = (0..64).map(|n| Hnsw::level_for(0xD1E7, n, ml)).collect();
        assert_ne!(other, base);
    }

    #[test]
    fn batch_probe_matches_per_query_probe() {
        let pts = grid_points(120);
        let idx = Hnsw::build(&pts, HnswParams::default());
        let expected: Vec<Vec<(usize, u32)>> =
            (0..120).map(|q| idx.knn_by_index(&pts, q, 4, 32)).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                idx.knn_batch(&pts, 4, 32, threads),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn respects_k_and_ef() {
        let pts = grid_points(100);
        let idx = Hnsw::build(&pts, HnswParams::default());
        assert_eq!(idx.knn_by_index(&pts, 5, 3, 64).len(), 3);
        // ef smaller than k is raised to k.
        assert_eq!(idx.knn_by_index(&pts, 5, 10, 1).len(), 10);
    }

    #[test]
    fn heuristic_selection_prefers_diverse_neighbours() {
        // base at 0; candidates at 1, 1.2 and -5, on a line scaled by 5
        // and shifted by 25 (base 25; candidates 30, 31, 0). Simple
        // selection with m=2 takes {1, 1.2}; the heuristic rejects 1.2
        // (closer to 1 than to base) and keeps -5 on the far side,
        // preserving connectivity.
        let pts = thermometer(&[[25], [30], [31], [0]]);
        let candidates = [key(5, 1), key(6, 2), key(25, 3)].map(|c| (c, Prior::Unknown));
        let ids = |links: Vec<u64>| links.into_iter().map(key_id).collect::<Vec<_>>();
        let (chosen, kept) = Hnsw::select_neighbors_heuristic(&pts, candidates, 2);
        assert_eq!(ids(chosen), vec![1, 3]);
        assert_eq!(kept, 2);
        // With room for all, rejected candidates are padded back in.
        let (chosen, kept) = Hnsw::select_neighbors_heuristic(&pts, candidates, 3);
        assert_eq!(ids(chosen), vec![1, 3, 2]);
        assert_eq!(kept, 2);
    }

    #[test]
    fn keys_order_as_distance_then_id() {
        let k = key(7, 3);
        assert_eq!((key_dist(k), key_id(k)), (7, 3));
        let max = key(u32::MAX, u32::MAX as usize);
        assert_eq!((key_dist(max), key_id(max)), (u32::MAX, u32::MAX as usize));
        let pairs = [(0u32, 9usize), (1, 0), (1, 2), (2, 1), (u32::MAX, 0)];
        for w in pairs.windows(2) {
            assert!(key(w[0].0, w[0].1) < key(w[1].0, w[1].1));
        }
    }

    /// The sequential build with every kept record cleared after each
    /// insert, so every prune of a full list re-runs Algorithm 4 over all
    /// of its links: the oracle the replayed prunes are pinned against.
    fn build_without_replay<P: PointSet>(points: &P, params: HnswParams) -> Hnsw {
        let mut index = Hnsw::empty(params, points.len());
        let ml = 1.0 / (params.m as f64).ln();
        let mut scratch = SearchScratch::default();
        let mut dirty = DirtyMarks::disabled();
        for node in 0..points.len() {
            let level = Hnsw::level_for(params.seed, node, ml);
            index.insert(points, node, level, &mut scratch, &mut dirty);
            index.kept.iter_mut().flatten().for_each(|k| *k = None);
        }
        index
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Replaying a list's kept record stores what the full
        /// re-selection stores: at m = 2..4 the upper layers fill and
        /// prune too, and injected duplicate and empty rows make the
        /// distance ties RBAC data has.
        #[test]
        fn replayed_prunes_match_full_reselection(
            (cols, mut data) in (2usize..14).prop_flat_map(|cols| {
                (Just(cols), vec(vec(0..cols, 0..=6), 8..56))
            }),
            copies in vec((0usize..1000, 0usize..1000), 0..10),
            empties in vec(0usize..1000, 0..3),
            m in 2usize..5,
            seed in 0u64..1000,
        ) {
            for (from, at) in copies {
                let row = data[from % data.len()].clone();
                data.insert(at % (data.len() + 1), row);
            }
            for at in empties {
                data.insert(at % (data.len() + 1), Vec::new());
            }
            let m_rows = CsrMatrix::from_rows_of_indices(data.len(), cols, &data).unwrap();
            let pts = PackedPointSet::from_matrix(&m_rows, 1);
            let params = HnswParams { m, seed, ..HnswParams::default() };
            let got = Hnsw::build(&pts, params);
            let oracle = build_without_replay(&pts, params);
            prop_assert_eq!(got.links(), oracle.links(), "m={}", m);
            prop_assert_eq!(got.levels(), oracle.levels());
            prop_assert_eq!(got.entry(), oracle.entry());
            for (owner, (layers, dists)) in got.links.iter().zip(&got.dists).enumerate() {
                for (list, dists) in layers.iter().zip(dists) {
                    prop_assert_eq!(list.len(), dists.len());
                    for (&link, &d) in list.iter().zip(dists) {
                        prop_assert_eq!(d, pts.distance(owner, link as usize));
                    }
                }
            }
        }
    }

    #[test]
    fn heuristic_index_keeps_high_recall() {
        let pts = grid_points(200);
        let idx = Hnsw::build(&pts, HnswParams::default());
        for q in [0usize, 50, 150, 199] {
            let hits = idx.knn_by_index(&pts, q, 3, 64);
            assert_eq!(hits[0], (q, 0));
            let approx: Vec<usize> = hits.iter().skip(1).map(|&(i, _)| i).collect();
            let exact: Vec<usize> = exact_knn(&pts, q, 2).into_iter().map(|(i, _)| i).collect();
            assert_eq!(approx, exact, "query {q}");
        }
    }

    #[test]
    #[should_panic(expected = "m must be at least 2")]
    fn rejects_degenerate_m() {
        let pts = grid_points(3);
        Hnsw::build(
            &pts,
            HnswParams {
                m: 1,
                ..HnswParams::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "m must be at least 2")]
    fn batched_rejects_degenerate_m() {
        let pts = grid_points(3);
        Hnsw::build_batched(
            &pts,
            HnswParams {
                m: 1,
                ..HnswParams::default()
            },
            4,
            2,
        );
    }
}
