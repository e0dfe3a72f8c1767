//! The two workloads: their inputs, their closed loops, the traced
//! replay of every operation, and the check of every output.
//!
//! Every run must report every end-to-end metric, so every workload runs
//! all five operations. Each runs them in one repeating cycle until its
//! time is up, so every operation's samples spread over the whole run
//! instead of one burst. The cycle's counts set each workload's emphasis
//! (see `README.md`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rolediet_core::detector::detect_degrees_with;
use rolediet_core::strategy::{
    dbscan_same_groups_cached, dbscan_similar_pairs_cached, find_same_groups, find_similar_pairs,
    hnsw_same_groups, hnsw_similar_pairs, DbscanEngine, HnswEngine,
};
use rolediet_core::{
    DetectionConfig, IncrementalPipeline, Pipeline, Report, ReportDelta, Strategy,
};
use rolediet_matrix::{CsrMatrix, RowMatrix, SignatureIndex};
use rolediet_mining::{
    generate_candidates_with, mine_greedy_cover_with, mine_lazy_from_pool, verify_exact_cover,
    MiningResult,
};
use rolediet_model::{EdgeDelta, PermissionId, RoleId, TripartiteGraph, UserId};
use rolediet_synth::churn::ChurnSimulator;
use rolediet_synth::{generate_matrix, generate_org, profiles, MatrixGenConfig};

use crate::checks;
use crate::trace::Tracer;

/// Deltas per `apply_batch` call.
pub const BATCH: usize = 100;

/// Every operation runs on one worker thread, the default configuration.
const THREADS: usize = 1;

/// Input sizes and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `ing_like` scale of the realorg organization.
    pub org_scale: f64,
    /// `ing_like` scale and number of the small organizations, which
    /// realorg's exact and approx detects and paper-dense's mines take in
    /// turn.
    pub small_scale: f64,
    pub small_orgs: usize,
    /// paper-dense: roles from the Fig. 3 generator, and its column count
    /// on each side.
    pub dense_roles: usize,
    pub dense_cols: usize,
    /// paper-dense: roles of each degree type added to the generated ones.
    pub degree_roles: usize,
    /// Deltas in each workload's churn stream; refreshing stops when it
    /// runs out.
    pub stream_deltas: usize,
    /// The fewest refresh batches a run measures, for a p90 with ten
    /// samples beyond it.
    pub refresh_min: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        org_scale: 1.0,
        small_scale: 0.05,
        small_orgs: 3,
        dense_roles: 5_000,
        dense_cols: 1_000,
        degree_roles: 100,
        stream_deltas: 60_000,
        refresh_min: 100,
        setups: 3,
    };

    /// The self-test scale: every operation and check runs in well under a
    /// second.
    pub const TINY: Sizes = Sizes {
        org_scale: 0.01,
        small_scale: 0.01,
        small_orgs: 2,
        dense_roles: 300,
        dense_cols: 120,
        degree_roles: 10,
        stream_deltas: 2_000,
        refresh_min: 5,
        setups: 2,
    };
}

/// A workload: a set of inputs and the cycle run over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Realorg,
    PaperDense,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Realorg, Workload::PaperDense];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Realorg => "realorg",
            Workload::PaperDense => "paper-dense",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations in one cycle.
    fn cycle_len(self) -> usize {
        self.cycle().iter().map(|&(_, count)| count).sum()
    }

    /// One cycle of the closed loop: each operation and how many times it
    /// runs in a row. An operation on the small orgs runs on the next of
    /// them in turn, and each such operation appears at least as often as
    /// there are small orgs, so one cycle covers them all. Operations
    /// recur at several points of the cycle, so their samples do not share
    /// one moment of machine speed.
    fn cycle(self) -> &'static [(Op, usize)] {
        use Kind::{Approx, Custom, Exact};
        use On::{Main, Small};
        match self {
            // Wide sparse rows: the custom detect and the mine of the full
            // org, and the write path that refreshes the same findings
            // under churn; exact and approx only fit the small orgs.
            Workload::Realorg => &[
                (Op::Detect(Custom, Main), 1),
                (Op::Refresh, 10),
                (Op::Detect(Exact, Small), 1),
                (Op::Detect(Approx, Small), 1),
                (Op::Refresh, 10),
                (Op::Detect(Exact, Small), 1),
                (Op::Mine(Main), 1),
                (Op::Detect(Exact, Small), 1),
                (Op::Refresh, 10),
                (Op::Detect(Approx, Small), 1),
                (Op::Detect(Exact, Small), 1),
                (Op::Refresh, 10),
                (Op::Mine(Main), 1),
                (Op::Detect(Exact, Small), 1),
                (Op::Refresh, 10),
                (Op::Detect(Approx, Small), 1),
                (Op::Detect(Exact, Small), 1),
            ],
            // Narrow dense rows: the three strategies on one input, as in
            // Fig. 3. The dense UPAM is degenerate (almost every user holds
            // almost every permission), so the mine runs on the small orgs.
            Workload::PaperDense => &[
                (Op::Detect(Custom, Main), 1),
                (Op::Refresh, 10),
                (Op::Detect(Exact, Main), 1),
                (Op::Mine(Small), 1),
                (Op::Refresh, 10),
                (Op::Detect(Exact, Main), 1),
                (Op::Mine(Small), 1),
                (Op::Detect(Approx, Main), 1),
                (Op::Detect(Exact, Main), 1),
                (Op::Mine(Small), 1),
                (Op::Refresh, 10),
                (Op::Detect(Custom, Main), 1),
                (Op::Detect(Exact, Main), 1),
                (Op::Mine(Small), 1),
                (Op::Refresh, 10),
                (Op::Detect(Exact, Main), 1),
                (Op::Mine(Small), 1),
                (Op::Detect(Custom, Main), 1),
                (Op::Mine(Small), 1),
            ],
        }
    }
}

/// The three T4/T5 strategies of the paper's Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Custom,
    Exact,
    Approx,
}

impl Kind {
    /// The configuration the strategy runs under. Custom runs the default.
    /// Exact and approx run it with `include_disjoint` on: they do not
    /// read the flag and always report disjoint pairs (a known defect, see
    /// `README.md`), and with it on the exact reference holds those pairs
    /// too, so their checks stay equality and containment. The workspace's
    /// own method-agreement tests compare the strategies in this setting.
    pub fn config(self) -> DetectionConfig {
        let strategy = match self {
            Kind::Custom => Strategy::Custom,
            Kind::Exact => Strategy::ExactDbscan,
            Kind::Approx => Strategy::hnsw_default(),
        };
        let mut cfg = DetectionConfig::with_strategy(strategy);
        cfg.similarity.include_disjoint = self != Kind::Custom;
        cfg
    }

    fn op_span(self) -> &'static str {
        match self {
            Kind::Custom => "op.detect.custom",
            Kind::Exact => "op.detect.exact",
            Kind::Approx => "op.detect.approx",
        }
    }
}

/// Which graph an operation reads. The incremental pipeline refreshes a
/// copy of the main input, so no graph changes during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum On {
    /// The workload's main input (realorg org or paper-dense graph).
    Main,
    /// Each of the small realorg-shaped organizations.
    Small,
}

/// A user-facing operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Detect(Kind, On),
    Mine(On),
    Refresh,
}

/// The operation kinds results are reported by, in report order.
pub const OPS: [&str; 6] = [
    "detect_custom",
    "detect_exact",
    "detect_approx",
    "mine",
    "refresh",
    "replay",
];
pub const MINE: usize = 3;
pub const REFRESH: usize = 4;
const REPLAY: usize = 5;

/// Everything set up before the first timed operation.
pub struct Inputs {
    main: TripartiteGraph,
    small: Vec<TripartiteGraph>,
    inc: IncrementalPipeline,
    stream: Vec<EdgeDelta>,
}

impl Inputs {
    /// Graph `g`: 0 is the main input, then the small orgs.
    fn graph(&self, g: usize) -> &TripartiteGraph {
        match g {
            0 => &self.main,
            _ => &self.small[g - 1],
        }
    }

    /// The graphs operations on `on` read.
    fn targets(&self, on: On) -> std::ops::Range<usize> {
        match on {
            On::Main => 0..1,
            On::Small => 1..1 + self.small.len(),
        }
    }

    /// The inputs' counts and content hashes, as printable lines.
    pub fn fingerprint(&self, workload: Workload) -> Vec<String> {
        let main = workload.name();
        let mut h = Fnv::new();
        for d in &self.stream {
            let (tag, a, b) = match *d {
                EdgeDelta::AddUser => (0, 0, 0),
                EdgeDelta::AddRole => (1, 0, 0),
                EdgeDelta::AddPermission => (2, 0, 0),
                EdgeDelta::Assign { role, user } => (3, role, user),
                EdgeDelta::Revoke { role, user } => (4, role, user),
                EdgeDelta::Grant { role, permission } => (5, role, permission),
                EdgeDelta::Ungrant { role, permission } => (6, role, permission),
            };
            h.write(tag);
            h.write(u64::from(a));
            h.write(u64::from(b));
        }
        let mut lines = vec![graph_fingerprint(main, &self.main)];
        for (k, small) in self.small.iter().enumerate() {
            lines.push(graph_fingerprint(&format!("small{k}"), small));
        }
        lines.push(format!(
            "stream on={main} deltas={} hash={:016x}",
            self.stream.len(),
            h.0
        ));
        lines
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn graph_fingerprint(name: &str, g: &TripartiteGraph) -> String {
    let mut h = Fnv::new();
    for (tag, m) in [(0, g.ruam_sparse()), (1, g.rpam_sparse())] {
        h.write(tag);
        for r in 0..m.n_rows() {
            let row = m.row(r);
            h.write(row.len() as u64);
            row.iter().for_each(|&c| h.write(u64::from(c)));
        }
    }
    format!(
        "input {name} roles={} users={} permissions={} edges={} hash={:016x}",
        g.n_roles(),
        g.n_users(),
        g.n_permissions(),
        g.n_user_assignments() + g.n_permission_grants(),
        h.0
    )
}

/// Runs `f` in a span when a tracer is given, bare otherwise.
fn step<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    mem: bool,
    f: impl FnOnce() -> T,
) -> Result<T, String> {
    match tr {
        Some(t) if mem => t.span_mem(name, f),
        Some(t) => t.span(name, f),
        None => Ok(f()),
    }
}

fn realorg(scale: f64, seed: u64) -> TripartiteGraph {
    generate_org(profiles::ing_like(scale, seed)).graph
}

/// The paper's Fig. 3 generator (one perturbed member per planted
/// cluster) on both sides, plus `degree_roles` each of userless,
/// single-user, permless and single-permission roles whose other side is
/// a generated row.
fn paper_dense(sizes: &Sizes, seed: u64) -> TripartiteGraph {
    let (roles, cols, extra) = (sizes.dense_roles, sizes.dense_cols, sizes.degree_roles);
    let side = |seed| {
        generate_matrix(MatrixGenConfig {
            perturbed_per_cluster: 1,
            ..MatrixGenConfig::paper(roles, cols, seed)
        })
        .sparse()
    };
    let ruam = side(seed);
    let rpam = side(seed ^ 0x9e37_79b9_7f4a_7c15);
    let others =
        generate_matrix(MatrixGenConfig::paper(4 * extra, cols, seed ^ 0x5bd1_e995)).sparse();
    let mut g = TripartiteGraph::with_counts(cols, roles + 4 * extra, cols);
    let mut link = |r: usize, users: &[u32], perms: &[u32]| {
        for &u in users {
            g.assign_user(RoleId(r as u32), UserId(u))
                .expect("generated ids are in range");
        }
        for &p in perms {
            g.grant_permission(RoleId(r as u32), PermissionId(p))
                .expect("generated ids are in range");
        }
    };
    for r in 0..roles {
        link(r, ruam.row(r), rpam.row(r));
    }
    for k in 0..4 * extra {
        let row = others.row(k);
        let one = [(splitmix(seed ^ k as u64) % cols as u64) as u32];
        match k / extra {
            0 => link(roles + k, &[], row),  // userless
            1 => link(roles + k, &one, row), // single-user
            2 => link(roles + k, row, &[]),  // permless
            _ => link(roles + k, row, &one), // single-permission
        }
    }
    g
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first `len` deltas of a default-weight churn stream on `graph`.
fn churn_stream(graph: &TripartiteGraph, seed: u64, len: usize) -> Vec<EdgeDelta> {
    let mut sim = ChurnSimulator::from_graph(graph.clone(), Default::default(), seed);
    while sim.deltas().len() < len {
        sim.step();
    }
    let mut stream = sim.drain_deltas();
    stream.truncate(len);
    stream
}

/// Generates the workload's inputs and seeds its incremental pipeline.
pub fn setup(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    mut tr: Option<&mut Tracer>,
) -> Result<Inputs, String> {
    let main = step(&mut tr, "synth.gen", false, || match w {
        Workload::PaperDense => paper_dense(sizes, seed),
        _ => realorg(sizes.org_scale, seed),
    })?;
    let small = (0..sizes.small_orgs as u64)
        .map(|k| {
            step(&mut tr, "synth.gen", false, || {
                realorg(sizes.small_scale, seed ^ (k << 32))
            })
        })
        .collect::<Result<_, _>>()?;
    let stream = step(&mut tr, "synth.churn", false, || {
        churn_stream(&main, seed, sizes.stream_deltas)
    })?;
    let inc = step(&mut tr, "core.incremental.new", true, || {
        IncrementalPipeline::new(&main, DetectionConfig::default())
    })?;
    Ok(Inputs {
        main,
        small,
        inc,
        stream,
    })
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = black_box(f());
    (start.elapsed().as_secs_f64(), out)
}

/// Times, check results and quality figures of a run's operations, each
/// sample with the graph it came from (0 is the main input).
#[derive(Debug, Default)]
pub struct Record {
    /// Seconds per operation, by [`OPS`] index (replays are not timed here).
    pub times: [Vec<(usize, f64)>; 5],
    /// `(passed, failed)` per [`OPS`] index. The refreshes of a run pass
    /// or fail together on one check of their folded deltas.
    pub tallies: [(usize, usize); 6],
    /// Per approx detect, the share of the reference's T4 member roles and
    /// T5 pairs it found.
    pub recall: Vec<(usize, f64)>,
    /// Roles in each mined cover that passed its check.
    pub mined_roles: Vec<(usize, f64)>,
    /// Untraced time of the operations that were also replayed.
    pub replayed_untraced_s: f64,
}

impl Record {
    fn tally(&mut self, op: usize, ok: bool) {
        let t = &mut self.tallies[op];
        if ok {
            t.0 += 1;
        } else {
            t.1 += 1;
        }
    }

    pub fn attempted(&self) -> usize {
        self.tallies.iter().map(|t| t.0 + t.1).sum()
    }

    pub fn failed(&self) -> usize {
        self.tallies.iter().map(|t| t.1).sum()
    }

    /// The mean over the five operation kinds of the share of the kind's
    /// operations that passed. One kind failing outright moves it by a
    /// fifth, however many operations each kind ran; a kind that never
    /// ran counts as failing. Replays are left out.
    pub fn ok_frac(&self) -> f64 {
        let kinds = &self.tallies[..REPLAY];
        let shares: f64 = kinds
            .iter()
            .map(|&(passed, failed)| passed as f64 / (passed + failed).max(1) as f64)
            .sum();
        shares / kinds.len() as f64
    }
}

/// A run in progress: the inputs, the references outputs are checked
/// against, and the record. Outputs are checked as they come and then
/// dropped, so what a run holds does not grow with its length.
pub struct Run<'a> {
    w: Workload,
    inputs: &'a mut Inputs,
    tracer: Option<&'a mut Tracer>,
    /// A copy of the incremental pipeline the traced refreshes replay on.
    twin: Option<IncrementalPipeline>,
    /// Exact reference reports by graph and `include_disjoint`, and UPAMs
    /// by graph, where an operation reads them.
    refs: BTreeMap<(usize, bool), Report>,
    upams: Vec<Option<CsrMatrix>>,
    /// The report before the first refresh with every refresh's delta
    /// folded in, and the refreshes that returned a delta.
    folded: Report,
    refreshed: usize,
    next_batch: usize,
    /// Operations so far on the small orgs, by [`OPS`] index.
    turns: [usize; MINE + 1],
    pub rec: Record,
    /// Drops the last role of every mined cover before its check, as a
    /// broken miner would.
    #[cfg(test)]
    pub break_covers: bool,
}

impl<'a> Run<'a> {
    /// Prepares the checks: the references of every input a detect or
    /// mine reads, and the report the refreshes start from.
    pub fn new(w: Workload, inputs: &'a mut Inputs, tracer: Option<&'a mut Tracer>) -> Self {
        let mut refs = BTreeMap::new();
        let mut upams = vec![None; 1 + inputs.small.len()];
        // The set-up's pipeline runs the default configuration and has seen
        // no delta yet: its report is the main input's reference for it.
        let folded = inputs.inc.report();
        for &(op, _) in w.cycle() {
            match op {
                Op::Detect(kind, on) => {
                    let cfg = kind.config();
                    let disjoint = cfg.similarity.include_disjoint;
                    for g in inputs.targets(on) {
                        refs.entry((g, disjoint))
                            .or_insert_with(|| match (g, disjoint) {
                                (0, false) => folded.clone(),
                                _ => checks::reference(inputs.graph(g), cfg),
                            });
                    }
                }
                Op::Mine(on) => {
                    for g in inputs.targets(on) {
                        upams[g].get_or_insert_with(|| inputs.graph(g).upam_sparse());
                    }
                }
                Op::Refresh => {}
            }
        }
        let twin = tracer.is_some().then(|| inputs.inc.clone());
        Run {
            w,
            inputs,
            tracer,
            twin,
            refs,
            upams,
            folded,
            refreshed: 0,
            next_batch: 0,
            turns: [0; MINE + 1],
            rec: Record::default(),
            #[cfg(test)]
            break_covers: false,
        }
    }

    /// The closed loop: one whole cycle, then operations in cycle order
    /// until `seconds` have passed, then refreshes up to the minimum
    /// count. A traced run passes 0 seconds.
    pub fn run_loop(&mut self, seconds: f64, sizes: &Sizes) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let ops = self
            .w
            .cycle()
            .iter()
            .flat_map(|&(op, count)| (0..count).map(move |_| op));
        for (i, op) in ops.cycle().enumerate() {
            if i >= self.w.cycle_len() && Instant::now() >= deadline {
                break;
            }
            self.op(op)?;
        }
        while self.rec.times[REFRESH].len() < sizes.refresh_min && self.refresh()? {}
        Ok(())
    }

    /// Checks the refreshes and returns the record. They pass when their
    /// folded deltas give the batch pipeline's report of the mutated
    /// graph.
    pub fn finish(mut self) -> Record {
        if self.refreshed > 0 {
            let rerun = Pipeline::new(DetectionConfig::default()).run(self.inputs.inc.graph());
            let ok = checks::findings_eq(&self.folded, &rerun);
            for _ in 0..self.refreshed {
                self.rec.tally(REFRESH, ok);
            }
        }
        self.rec
    }

    fn op(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Detect(kind, on) => {
                let g = self.target(kind as usize, on);
                self.detect(kind, g)
            }
            Op::Mine(on) => {
                let g = self.target(MINE, on);
                self.mine(g)
            }
            Op::Refresh => self.refresh().map(|_| ()),
        }
    }

    /// The graph the next operation of kind `op` on `on` reads: the main
    /// input, or the next small org in turn.
    fn target(&mut self, op: usize, on: On) -> usize {
        let graphs = self.inputs.targets(on);
        let turn = self.turns[op];
        if on == On::Small {
            self.turns[op] += 1;
        }
        graphs.start + turn % graphs.len()
    }

    fn note_replay(&mut self, untraced_s: f64, same: bool) {
        self.rec.tally(REPLAY, same);
        self.rec.replayed_untraced_s += untraced_s;
    }

    /// One detect of graph `g` through `Pipeline::run`.
    fn detect(&mut self, kind: Kind, g: usize) -> Result<(), String> {
        let graph = self.inputs.graph(g);
        let cfg = kind.config();
        let pipeline = Pipeline::new(cfg);
        let (secs, report) = timed(|| pipeline.run(graph));
        let replay = match self.tracer.as_deref_mut() {
            Some(t) => Some(checks::findings_eq(
                &replay_detect(t, graph, kind)?,
                &report,
            )),
            None => None,
        };
        let reference = &self.refs[&(g, cfg.similarity.include_disjoint)];
        let ok = match kind {
            Kind::Custom => checks::check_custom(&report, reference, graph),
            // An exact strategy must find what the exact reference under
            // its configuration finds.
            Kind::Exact => checks::findings_eq(&report, reference),
            Kind::Approx => {
                let (found, total) = checks::recall(&report, reference);
                let share = if total == 0 {
                    1.0
                } else {
                    found as f64 / total as f64
                };
                self.rec.recall.push((g, share));
                checks::check_approx(&report, reference)
            }
        };
        if let Some(same) = replay {
            self.note_replay(secs, same);
        }
        self.rec.times[kind as usize].push((g, secs));
        self.rec.tally(kind as usize, ok);
        Ok(())
    }

    /// One UPAM projection + lazy-greedy cover of graph `g` (the span
    /// `rolediet mine` times); the cover must be exact.
    fn mine(&mut self, g: usize) -> Result<(), String> {
        let graph = self.inputs.graph(g);
        let config = DetectionConfig::default().mining;
        let (secs, result) = timed(|| {
            let upam = graph.upam_sparse_with(THREADS);
            mine_greedy_cover_with(&upam, &config, THREADS).map_err(|e| e.to_string())
        });
        let replay = match self.tracer.as_deref_mut() {
            Some(t) => Some(replay_mine(t, graph)? == result),
            None => None,
        };
        #[cfg(test)]
        let result = result.map(|mut m| {
            if self.break_covers {
                m.roles.pop();
            }
            m
        });
        let ok = result.is_ok_and(|m| {
            let upam = self.upams[g].as_ref().expect("set up in new()");
            let exact = verify_exact_cover(upam, &m.roles).is_ok();
            if exact {
                self.rec.mined_roles.push((g, m.n_roles() as f64));
            }
            exact
        });
        if let Some(same) = replay {
            self.note_replay(secs, same);
        }
        self.rec.times[MINE].push((g, secs));
        self.rec.tally(MINE, ok);
        Ok(())
    }

    /// The next 100-delta `apply_batch`; `false` once the stream is used
    /// up. Its finding delta is folded into the running report.
    fn refresh(&mut self) -> Result<bool, String> {
        let inputs = &mut *self.inputs;
        let Some(batch) = inputs.stream.chunks(BATCH).nth(self.next_batch) else {
            return Ok(false);
        };
        self.next_batch += 1;
        let (secs, delta) = timed(|| inputs.inc.apply_batch(batch));
        if let (Some(t), Some(twin)) = (self.tracer.as_deref_mut(), self.twin.as_mut()) {
            let replay = replay_refresh(t, twin, batch)?;
            let same = replay.ok() == delta.as_ref().ok().cloned();
            self.note_replay(secs, same);
        }
        self.rec.times[REFRESH].push((0, secs));
        match delta {
            Ok(d) => {
                checks::apply_delta(&mut self.folded, &d);
                self.refreshed += 1;
            }
            Err(_) => self.rec.tally(REFRESH, false),
        }
        Ok(true)
    }
}

/// The run's peak resident set since the last reset, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(crate::trace::status_kb("VmHWM")? as f64 / 1024.0)
}

/// `Pipeline::run` taken apart: the same public calls in the same order,
/// each in its layer's span.
fn replay_detect(t: &mut Tracer, graph: &TripartiteGraph, kind: Kind) -> Result<Report, String> {
    let cfg = kind.config();
    t.enter(kind.op_span());
    let (ruam, rpam) = t.span("model.graph.project", || {
        (
            graph.ruam_sparse_with(THREADS),
            graph.rpam_sparse_with(THREADS),
        )
    })?;
    t.add("model.graph.nnz", ruam.nnz() + rpam.nnz());
    let degrees = t.span("core.detector", || {
        detect_degrees_with(&ruam, &rpam, THREADS)
    })?;
    let mut report = Report {
        standalone_users: degrees.standalone_users,
        standalone_permissions: degrees.standalone_permissions,
        standalone_roles: degrees.standalone_roles,
        userless_roles: degrees.userless_roles,
        permless_roles: degrees.permless_roles,
        single_user_roles: degrees.single_user_roles,
        single_permission_roles: degrees.single_permission_roles,
        config: cfg,
        ..Report::default()
    };
    let sides = [&ruam, &rpam];
    let (mut groups, mut pairs) = (Vec::new(), Vec::new());
    match cfg.strategy {
        Strategy::Custom => {
            for m in sides {
                // The signature pass alone, next to the T4 call that
                // includes it.
                let index = t.span_mem("matrix.signature", || {
                    SignatureIndex::build_with(m, THREADS)
                })?;
                t.add("matrix.signature.rows", m.n_rows());
                t.add("matrix.signature.distinct", index.distinct());
                drop(index);
                let g = t.span("core.cooccur.same", || {
                    find_same_groups(m, &cfg.strategy, cfg.parallelism)
                })?;
                t.add("core.cooccur.groups", g.len());
                groups.push(g);
            }
            for m in sides {
                let transpose = t.span("matrix.sparse.transpose", || m.transpose_with(THREADS))?;
                let p = t.span("core.cooccur.similar", || {
                    find_similar_pairs(
                        m,
                        &transpose,
                        &cfg.strategy,
                        &cfg.similarity,
                        cfg.parallelism,
                    )
                })?;
                t.add("core.cooccur.pairs", p.len());
                pairs.push(p);
            }
        }
        Strategy::ExactDbscan => {
            let mut engines = Vec::new();
            for m in sides {
                engines.push(t.span("matrix.packed", || {
                    DbscanEngine::build_with_budget(m, cfg.memory_budget_bytes, THREADS)
                })?);
            }
            for e in &engines {
                let hoods =
                    t.span_mem("cluster.neighbors", || e.duplicate_neighborhoods(THREADS))?;
                t.add("cluster.neighbors.edges", hoods.iter().map(Vec::len).sum());
                let g = t.span("cluster.dbscan", || {
                    dbscan_same_groups_cached(e, &hoods, cfg.include_empty_duplicates, THREADS)
                })?;
                t.add(
                    "cluster.dbscan.pairs",
                    g.iter().map(|g| g.len() * (g.len() - 1) / 2).sum(),
                );
                groups.push(g);
            }
            for e in &engines {
                let hoods = t.span_mem("cluster.neighbors", || {
                    e.similar_neighborhoods(cfg.similarity.threshold, THREADS)
                })?;
                t.add("cluster.neighbors.edges", hoods.iter().map(Vec::len).sum());
                let p = t.span("cluster.dbscan", || {
                    dbscan_similar_pairs_cached(e, &hoods, &cfg.similarity, THREADS)
                })?;
                t.add("cluster.dbscan.pairs", p.len());
                pairs.push(p);
            }
        }
        Strategy::ApproxHnsw { params, probe_k } => {
            let mut engines = Vec::new();
            for m in sides {
                engines.push(t.span_mem("cluster.hnsw.build", || {
                    HnswEngine::build(m, params, cfg.hnsw_batch, THREADS)
                })?);
            }
            let rows = graph.n_roles();
            for e in &engines {
                let g = t.span("cluster.hnsw.probe", || {
                    let mut g = hnsw_same_groups(e, probe_k, THREADS);
                    if !cfg.include_empty_duplicates {
                        g.retain(|g| e.row_norm(g[0]) > 0);
                    }
                    g
                })?;
                t.add(
                    "cluster.hnsw.probe.kept",
                    g.iter().map(|g| g.len() - 1).sum(),
                );
                t.add("cluster.hnsw.probe.retrieved", rows * probe_k);
                groups.push(g);
            }
            for e in &engines {
                let p = t.span("cluster.hnsw.probe", || {
                    hnsw_similar_pairs(e, probe_k, &cfg.similarity, THREADS)
                })?;
                t.add("cluster.hnsw.probe.kept", p.len());
                t.add("cluster.hnsw.probe.retrieved", rows * probe_k);
                pairs.push(p);
            }
        }
        Strategy::MinHashLsh { .. } => {
            unreachable!("the benchmark runs the paper's three strategies")
        }
    }
    t.exit()?;
    let mut pairs = pairs.into_iter();
    report.similar_user_pairs = pairs.next().expect("user side");
    report.similar_permission_pairs = pairs.next().expect("permission side");
    let mut groups = groups.into_iter();
    report.same_user_groups = groups.next().expect("user side");
    report.same_permission_groups = groups.next().expect("permission side");
    Ok(report)
}

/// `mine_greedy_cover_with` taken apart; the exact-cover check runs after
/// the operation's span, as it is not part of the operation.
fn replay_mine(
    t: &mut Tracer,
    graph: &TripartiteGraph,
) -> Result<Result<MiningResult, String>, String> {
    let config = DetectionConfig::default().mining;
    t.enter("op.mine");
    let upam: CsrMatrix = t.span("model.graph.upam", || graph.upam_sparse_with(THREADS))?;
    let pool = t.span_mem("mining.candidates", || {
        generate_candidates_with(&upam, &config.candidates, THREADS)
    })?;
    t.add("mining.candidates.pool", pool.len());
    t.add("mining.candidates.initial", pool.n_initial());
    let result = t.span_mem("mining.cover", || {
        mine_lazy_from_pool(&upam, &pool, THREADS)
    })?;
    t.exit()?;
    let result = result.map_err(|e| e.to_string());
    if let Ok(r) = &result {
        t.add("mining.cover.roles", r.n_roles());
        t.add("mining.cover.considered", r.candidates_considered);
        // Timed only: the untraced cover is verified, and the replay must
        // equal it.
        let _ = t.span("mining.verify", || verify_exact_cover(&upam, &r.roles))?;
    }
    Ok(result)
}

/// `apply_batch` taken apart: report, every delta, report, difference.
fn replay_refresh(
    t: &mut Tracer,
    inc: &mut IncrementalPipeline,
    batch: &[EdgeDelta],
) -> Result<Result<ReportDelta, String>, String> {
    t.enter("op.refresh");
    let before = t.span("core.incremental.report", || inc.report())?;
    for d in batch {
        if let Err(e) = t.span("core.incremental.apply", || inc.apply(d))? {
            t.exit()?;
            return Ok(Err(e.to_string()));
        }
    }
    t.add("core.incremental.apply.events", batch.len());
    let after = t.span("core.incremental.report", || inc.report())?;
    let delta = t.span("core.incremental.delta", || {
        ReportDelta::between(&before, &after)
    })?;
    t.add("core.incremental.delta.changes", delta.change_count());
    t.exit()?;
    Ok(Ok(delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_runs_every_small_org_operation_on_every_small_org() {
        for w in Workload::ALL {
            let mut per_kind = [0; MINE + 1];
            for &(op, count) in w.cycle() {
                match op {
                    Op::Detect(kind, On::Small) => per_kind[kind as usize] += count,
                    Op::Mine(On::Small) => per_kind[MINE] += count,
                    _ => {}
                }
            }
            for sizes in [Sizes::FULL, Sizes::TINY] {
                for (op, &n) in per_kind.iter().enumerate() {
                    assert!(
                        n == 0 || n >= sizes.small_orgs,
                        "{}: {} runs {n} times a cycle",
                        w.name(),
                        OPS[op]
                    );
                }
            }
        }
    }
}
