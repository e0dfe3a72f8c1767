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
//! rejected ones that pad it to capacity, and the index remembers where
//! the kept prefix ends. Most backlinks to a full list are dropped again
//! by the next prune, and that prefix lets the prune see so from a few
//! distances to the newcomer instead of re-running the selection
//! (DESIGN.md §5 has the argument).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::metric::PointSet;

/// Total order wrapper for non-NaN distances.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dist(f64);

impl Eq for Dist {}

impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dist {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // IEEE total order: agrees with partial_cmp on the non-NaN,
        // non-negative-zero distances this wrapper ever holds, and
        // removes the panic path entirely.
        self.0.total_cmp(&other.0)
    }
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
    /// Beam results per shared layer, in search order (top shared layer
    /// first — the order the sequential insert processes them).
    nearest_per_layer: Vec<Vec<(usize, f64)>>,
    /// Every `(node, layer)` link list the greedy descent or a beam
    /// search iterated ([`encode_read`]), sorted and deduplicated.
    reads: Vec<u64>,
}

/// A built HNSW index over the points `0..n` of some [`PointSet`].
///
/// The index stores only graph structure; distances are recomputed against
/// the point set on demand, so the same index type serves sparse rows,
/// packed rows and test point clouds.
///
/// # Examples
///
/// ```
/// use rolediet_cluster::hnsw::{Hnsw, HnswParams};
/// use rolediet_cluster::metric::VecPoints;
///
/// let pts = VecPoints::new((0..100).map(|i| vec![i as f64]).collect());
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
            kept: Vec::with_capacity(capacity),
            levels: Vec::with_capacity(capacity),
            entry: None,
            max_level: 0,
        }
    }

    /// Appends `node` with empty link lists on layers `0..=level`.
    fn push_node(&mut self, level: usize) {
        self.links.push(vec![Vec::new(); level + 1]);
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
            if let Some(&(best, _)) = nearest.first() {
                ep = best;
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
    /// `nearest`, push them bidirectionally, trim overfull neighbour
    /// lists, and return the next layer's entry point. A neighbour list
    /// is marked dirty only when its stored bytes change — precisely the
    /// condition under which a concurrent speculative read could have
    /// diverged (the marks are disabled in the sequential build).
    fn commit_layer<P: PointSet>(
        &mut self,
        points: &P,
        node: usize,
        layer: usize,
        nearest: &[(usize, f64)],
        dirty: &mut DirtyMarks,
    ) -> Option<usize> {
        let (chosen, _) = Self::select_neighbors_heuristic(points, nearest, self.params.m);
        for &nb in &chosen {
            self.links[node][layer].push(nb);
            if self.push_backlink(points, nb as usize, layer, node) {
                dirty.mark(nb as usize, layer);
            }
        }
        nearest.first().map(|&(best, _)| best)
    }

    /// Algorithm 4 of the HNSW paper: scan candidates in ascending
    /// distance to the base node (`candidates` carries those distances),
    /// keeping one only if it is closer to the base than to every
    /// neighbour already kept, then pad with the nearest rejected
    /// candidates if fewer than `m` survive. Returns the links and how
    /// many of them lead as kept (the rest is padding).
    fn select_neighbors_heuristic<P: PointSet>(
        points: &P,
        candidates: &[(usize, f64)],
        m: usize,
    ) -> (Vec<u32>, usize) {
        let mut kept: Vec<(usize, f64)> = Vec::with_capacity(m);
        let mut rejected: Vec<usize> = Vec::new();
        for &(cand, d_base) in candidates {
            if kept.len() >= m {
                break;
            }
            let dominated = kept.iter().any(|&(k, _)| points.distance(cand, k) < d_base);
            if dominated {
                rejected.push(cand);
            } else {
                kept.push((cand, d_base));
            }
        }
        let n_kept = kept.len();
        let mut out: Vec<u32> = kept.into_iter().map(|(id, _)| id as u32).collect();
        for r in rejected {
            if out.len() >= m {
                break;
            }
            out.push(r as u32);
        }
        (out, n_kept)
    }

    /// Pushes the backlink `x` onto `node`'s list on `layer` and trims
    /// the list back to capacity with Algorithm 4 (as in hnswlib, which
    /// prunes with the same heuristic it selects with; plain
    /// closest-first pruning is what orphans nodes inside
    /// duplicate-heavy clusters). Returns whether the stored bytes
    /// changed.
    ///
    /// A full list stays as it is, without a re-selection, when
    /// [`drops_newcomer`](Self::drops_newcomer) shows the selection
    /// would drop `x`; every other full list (a fresh node's own, one
    /// filled by raw pushes, one already holding `x`) is re-selected and
    /// its kept prefix recorded.
    fn push_backlink<P: PointSet>(
        &mut self,
        points: &P,
        node: usize,
        layer: usize,
        x: usize,
    ) -> bool {
        let cap = self.max_links(layer);
        if self.links[node][layer].len() < cap {
            // Below capacity the push lands verbatim; the list is no
            // longer a selection.
            self.links[node][layer].push(x as u32);
            self.kept[node][layer] = None;
            return true;
        }
        if self.drops_newcomer(points, node, layer, x) {
            return false;
        }
        // Dedup by id first (a repeated backlink adds nothing), then keep
        // `cap` links in ascending `(distance, id)` order of scan.
        let mut ids = self.links[node][layer].clone();
        ids.push(x as u32);
        ids.sort_unstable();
        ids.dedup();
        let (list, kept) = if ids.len() <= cap {
            (ids, None)
        } else {
            let mut with_d: Vec<(usize, f64)> = ids
                .iter()
                .map(|&nb| (nb as usize, points.distance(node, nb as usize)))
                .collect();
            with_d.sort_by_key(|&(id, d)| (Dist(d), id));
            let (list, n_kept) = Self::select_neighbors_heuristic(points, &with_d, cap);
            (list, u32::try_from(n_kept).ok())
        };
        self.kept[node][layer] = kept;
        let changed = list != self.links[node][layer];
        self.links[node][layer] = list;
        changed
    }

    /// Whether re-selecting `node`'s full list on `layer` together with
    /// the newcomer `x` would store the list unchanged, decided from at
    /// most `2·|kept| + 2` distance calls, each with the arguments and
    /// argument order the re-selection uses; `false` unless the last
    /// write to the list was a selection (the `kept` record).
    ///
    /// Such a list is `kept ++ rejected`, each part ascending by
    /// `(distance, id)`, and re-selecting its own members returns it
    /// unchanged. With `x` added, every link meets the same kept links
    /// before it as long as `x` is not kept. So when no link was rejected
    /// or `x` sorts after the last rejected one, the list comes back
    /// unchanged exactly when `x` is dropped: a kept link sorting before
    /// `x` dominates it (`distance(x, k) < distance(node, x)`), or no
    /// link was rejected and `x` sorts after every kept one, so the scan
    /// fills the list first. A dropped `x` then pads in behind every
    /// rejected link, past capacity. When `x` sorts before the last
    /// rejected link, it is kept or pads in ahead of that link: the list
    /// changes.
    fn drops_newcomer<P: PointSet>(&self, points: &P, node: usize, layer: usize, x: usize) -> bool {
        let Some(n_kept) = self.kept[node][layer] else {
            return false;
        };
        let list = &self.links[node][layer];
        if list.contains(&(x as u32)) {
            return false;
        }
        let (kept, rejected) = list.split_at(n_kept as usize);
        let d_x = points.distance(node, x);
        let x_key = (Dist(d_x), x);
        if let Some(&last) = rejected.last() {
            let last = last as usize;
            if (Dist(points.distance(node, last)), last) > x_key {
                return false;
            }
        }
        for &k in kept {
            let k = k as usize;
            if (Dist(points.distance(node, k)), k) > x_key {
                // `x` is scanned before `k` with no kept link dominating it.
                return false;
            }
            if points.distance(x, k) < d_x {
                return true;
            }
        }
        rejected.is_empty()
    }

    /// Greedy walk on one layer to the locally closest node to the query.
    /// When `reads` is given, every node whose link list the walk scans
    /// is recorded.
    fn greedy_closest(
        &self,
        dist: &impl Fn(usize) -> f64,
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

    /// Beam search on one layer. Returns up to `ef` nodes sorted by
    /// ascending distance. When `reads` is given, every node whose link
    /// list the beam iterates is recorded.
    fn search_layer_in(
        &self,
        dist: &impl Fn(usize) -> f64,
        entry_points: &[usize],
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        mut reads: Option<&mut Vec<u64>>,
    ) -> Vec<(usize, f64)> {
        scratch.begin(self.links.len());
        // candidates: min-heap by distance; results: max-heap by distance.
        let mut candidates: BinaryHeap<Reverse<(Dist, usize)>> = BinaryHeap::new();
        let mut results: BinaryHeap<(Dist, usize)> = BinaryHeap::new();
        for &ep in entry_points {
            if !scratch.visit(ep) {
                continue;
            }
            let d = Dist(dist(ep));
            candidates.push(Reverse((d, ep)));
            results.push((d, ep));
        }
        while let Some(Reverse((d, node))) = candidates.pop() {
            if let Some(&(worst, _)) = results.peek() {
                if results.len() >= ef && d > worst {
                    break;
                }
            }
            if layer < self.links[node].len() {
                if let Some(r) = reads.as_deref_mut() {
                    r.push(encode_read(node, layer));
                }
                for &nb in &self.links[node][layer] {
                    let nb = nb as usize;
                    if !scratch.visit(nb) {
                        continue;
                    }
                    let dnb = Dist(dist(nb));
                    if results.len() < ef || results.peek().is_some_and(|&(worst, _)| dnb < worst) {
                        candidates.push(Reverse((dnb, nb)));
                        results.push((dnb, nb));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        let mut out: Vec<(usize, f64)> = results.into_iter().map(|(d, n)| (n, d.0)).collect();
        out.sort_by(|a, b| Dist(a.1).cmp(&Dist(b.1)).then(a.0.cmp(&b.0)));
        out
    }

    /// The search behind [`knn_by_index`](Self::knn_by_index): `dist(j)`
    /// is the distance from indexed point `query` to point `j`.
    fn search_internal(
        &self,
        dist: impl Fn(usize) -> f64,
        k: usize,
        ef: usize,
        query: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<(usize, f64)> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        let mut ep = entry;
        for layer in (1..=self.max_level).rev() {
            ep = self.greedy_closest(&dist, ep, layer, None);
        }
        let mut out = self.search_layer_in(&dist, &[ep, query], ef.max(k), 0, scratch, None);
        out.truncate(k);
        out
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
    ) -> Vec<(usize, f64)> {
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
    ) -> Vec<Vec<(usize, f64)>> {
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
    use crate::metric::{BinaryRows, PackedPointSet, VecPoints};
    use crate::neighbors::knn as exact_knn;
    use rolediet_matrix::CsrMatrix;

    fn grid_points(n: usize) -> VecPoints {
        // n points on a line — easy geometry with unambiguous neighbours.
        VecPoints::new((0..n).map(|i| vec![i as f64]).collect())
    }

    #[test]
    fn empty_and_singleton() {
        let pts = VecPoints::new(vec![]);
        let idx = Hnsw::build(&pts, HnswParams::default());
        assert!(idx.is_empty());

        let one = VecPoints::new(vec![vec![1.0]]);
        let idx = Hnsw::build(&one, HnswParams::default());
        assert_eq!(idx.len(), 1);
        let hits = idx.knn_by_index(&one, 0, 5, 16);
        assert_eq!(hits, vec![(0, 0.0)]);
    }

    #[test]
    fn finds_self_and_true_neighbours_on_line() {
        let pts = grid_points(200);
        let idx = Hnsw::build(&pts, HnswParams::default());
        for q in [0usize, 17, 99, 199] {
            let hits = idx.knn_by_index(&pts, q, 3, 64);
            assert_eq!(hits[0], (q, 0.0), "self is the closest hit");
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
            .filter(|&&(_, d)| d == 0.0)
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
        let expected: Vec<Vec<(usize, f64)>> =
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
        // base at 0; candidates at 1, 1.2 and -5. Simple selection with
        // m=2 takes {1, 1.2}; the heuristic rejects 1.2 (closer to 1 than
        // to base) and keeps -5 on the far side, preserving connectivity.
        let pts = VecPoints::new(vec![vec![0.0], vec![1.0], vec![1.2], vec![-5.0]]);
        let candidates = vec![(1usize, 1.0), (2usize, 1.2), (3usize, 5.0)];
        let (chosen, kept) = Hnsw::select_neighbors_heuristic(&pts, &candidates, 2);
        assert_eq!(chosen, vec![1, 3]);
        assert_eq!(kept, 2);
        // With room for all, rejected candidates are padded back in.
        let (chosen, kept) = Hnsw::select_neighbors_heuristic(&pts, &candidates, 3);
        assert_eq!(chosen, vec![1, 3, 2]);
        assert_eq!(kept, 2);
    }

    #[test]
    fn heuristic_index_keeps_high_recall() {
        let pts = grid_points(200);
        let idx = Hnsw::build(&pts, HnswParams::default());
        for q in [0usize, 50, 150, 199] {
            let hits = idx.knn_by_index(&pts, q, 3, 64);
            assert_eq!(hits[0], (q, 0.0));
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
