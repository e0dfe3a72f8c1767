//! Reproduces every figure and table of the paper's evaluation.
//!
//! ```text
//! repro fig2 [--runs 5] [--roles 1000] [--min 1000 --max 10000 --step 1000] [--budget-secs 600] [--similar]
//! repro fig3 [--runs 5] [--users 1000] [--min 1000 --max 10000 --step 1000] [--budget-secs 600] [--similar]
//! repro realorg [--scale 1.0 | --users N --roles N --density D] [--seed 7] [--strategy custom]
//!               [--hnsw-batch N] [--baselines] [--validate] [--budget-secs 600]
//! repro recall [--roles 2000] [--users 1000]
//! repro periodic [--scale 0.05] [--seed 7]
//! repro mining [--steps 500] [--scale 0.02] [--seed 7] [--threads N]
//! repro churn [--steps 500] [--batch 100] [--incremental] [--scale 0.05] [--seed 7]
//! repro cooccur-example
//! ```
//!
//! `--scale` and `--density` must lie in (0, 1]; each command's default
//! applies only when the flag is absent. `--runs`, `--step` and `--batch`
//! must be at least 1, a `--similar` sweep needs at least one user column
//! (`fig2 --min`, `fig3 --users`), and realorg's custom-shape org needs
//! `--users` of at least 600. Every other count flag takes a whole
//! number and `--strategy` one of its four names. A value outside these
//! rules, a flag without a value and an unknown flag exit 1 with a
//! message naming the flag.
//!
//! Absolute numbers differ from the paper (different hardware and
//! language); the claims to check are the *shapes*: custom ≪ exact ≈
//! approx, near-flat scaling in users (Fig 2), superlinear growth in
//! roles with an approx/exact crossover (Fig 3), and the Section IV-B
//! inefficiency table at organization scale.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::{Duration, Instant};

use rolediet_bench::{
    format_series, mean_std, paper_strategies, sweep_matrix, time_same_groups_with,
    time_similar_pairs_with, SweepPoint,
};
use rolediet_core::config::{parse_thread_count, MAX_THREADS};
use rolediet_core::{DetectionConfig, MergePlan, Parallelism, Pipeline, Side, Strategy};
use rolediet_model::DatasetStats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        print_help();
        std::process::exit(2);
    };
    let opts = Opts::parse(&args[1..]);
    match cmd.as_str() {
        "fig2" => sweep(SweepAxis::Users, &opts),
        "fig3" => sweep(SweepAxis::Roles, &opts),
        "realorg" => realorg(&opts),
        "recall" => recall(&opts),
        "periodic" => periodic(&opts),
        "mining" => mining(&opts),
        "churn" => churn(&opts),
        "cooccur-example" => cooccur_example(),
        "help" | "--help" | "-h" => print_help(),
        other => {
            eprintln!("unknown command {other:?}\n");
            print_help();
            std::process::exit(2);
        }
    }
}

fn print_help() {
    println!(
        "repro — regenerate the paper's figures and tables\n\
         \n\
         commands:\n\
         \x20 fig2             runtime vs #users  (roles fixed; Figure 2)\n\
         \x20 fig3             runtime vs #roles  (users fixed; Figure 3)\n\
         \x20 realorg          Section IV-B inefficiency table on the ing-like org\n\
         \x20 recall           HNSW/MinHash recall ablation (abl-recall)\n\
         \x20 periodic         periodic-cleanup convergence per strategy\n\
         \x20 mining           refine (role diet) vs regenerate (lazy-greedy mining) on a churned org\n\
         \x20 churn            replay simulated churn in batches, re-detecting per batch\n\
         \x20 cooccur-example  print the Section III-C co-occurrence matrix\n\
         \n\
         common flags: --runs N --min N --max N --step N --roles N --users N\n\
         \x20             --density D (realorg: custom-shape org instead of ing-like)\n\
         \x20             --budget-secs N --similar --seed N --baselines\n\
         \x20             --scale F (ing-like org size in (0, 1]; realorg default 1,\n\
         \x20                        periodic and churn 0.05, mining 0.02)\n\
         \x20             --threads N (worker threads for the parallel stages, 1 to {MAX_THREADS};\n\
         \x20                          default 1)\n\
         \x20             --validate (realorg: run the report validators on the result)\n\
         \x20             --strategy custom|dbscan|hnsw|minhash (realorg pipeline strategy)\n\
         \x20             --hnsw-batch N (realorg: HNSW build generation size; 0 = sequential;\n\
         \x20                             ignored at one thread, where the build is sequential)\n\
         \x20             --steps N --batch N (churn: total events and events per batch)\n\
         \x20             --incremental (churn: refresh findings online and verify the\n\
         \x20                            report and its delta against the batch reruns)"
    );
}

/// Minimal flag parser: `--key value` pairs plus boolean flags.
struct Opts {
    runs: usize,
    min: usize,
    max: usize,
    step: usize,
    roles: Option<usize>,
    users: Option<usize>,
    density: Option<f64>,
    budget: Duration,
    similar: bool,
    scale: Option<f64>,
    seed: u64,
    baselines: bool,
    threads: usize,
    validate: bool,
    steps: usize,
    batch: usize,
    incremental: bool,
    strategy: Strategy,
    hnsw_batch: Option<usize>,
}

impl Opts {
    /// The parallelism setting the flags ask for.
    fn parallelism(&self) -> Parallelism {
        if self.threads <= 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Threads(self.threads)
        }
    }

    /// `--roles` with the sweep default.
    fn roles(&self) -> usize {
        self.roles.unwrap_or(1_000)
    }

    /// `--users` with the sweep default.
    fn users(&self) -> usize {
        self.users.unwrap_or(1_000)
    }

    /// `--scale` with the command's `default`.
    fn scale(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
    }

    /// The realorg subject: the published ing-like shape at `--scale` by
    /// default; any of `--users`/`--roles`/`--density` switches to a
    /// [`rolediet_synth::profiles::custom_shape`] organization of that
    /// shape instead (unset targets default to the published counts).
    fn realorg_subject(&self) -> rolediet_synth::GeneratedOrg {
        if self.users.is_some() || self.roles.is_some() || self.density.is_some() {
            let users = self.users.unwrap_or(89_900);
            if users < 600 {
                reject(&format!(
                    "--users must be >= 600 for the custom-shape org, got {users}"
                ));
            }
            let roles = self.roles.unwrap_or(50_300);
            let density = self.density.unwrap_or(16.0 / users as f64);
            println!("# custom-shape organization: users={users} roles={roles} density={density}");
            rolediet_synth::generate_org(rolediet_synth::profiles::custom_shape(
                users, roles, density, self.seed,
            ))
        } else {
            rolediet_synth::profiles::generate_ing_like(self.scale(1.0), self.seed)
        }
    }
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            runs: 5,
            min: 1_000,
            max: 10_000,
            step: 1_000,
            roles: None,
            users: None,
            density: None,
            budget: Duration::from_secs(600),
            similar: false,
            scale: None,
            seed: 7,
            baselines: false,
            threads: 1,
            validate: false,
            steps: 500,
            batch: 100,
            incremental: false,
            strategy: Strategy::Custom,
            hnsw_batch: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| reject(&format!("{name} needs a value")))
                    .clone()
            };
            match a.as_str() {
                "--runs" => o.runs = at_least_one("--runs", &val("--runs")),
                "--min" => o.min = whole("--min", &val("--min")),
                "--max" => o.max = whole("--max", &val("--max")),
                "--step" => o.step = at_least_one("--step", &val("--step")),
                "--roles" => o.roles = Some(whole("--roles", &val("--roles"))),
                "--users" => o.users = Some(whole("--users", &val("--users"))),
                "--density" => o.density = Some(unit_interval("--density", &val("--density"))),
                "--budget-secs" => {
                    o.budget = Duration::from_secs(whole("--budget-secs", &val("--budget-secs")))
                }
                "--similar" => o.similar = true,
                "--scale" => o.scale = Some(unit_interval("--scale", &val("--scale"))),
                "--seed" => o.seed = whole("--seed", &val("--seed")),
                "--baselines" => o.baselines = true,
                "--threads" => {
                    o.threads = parse_thread_count("--threads", &val("--threads"))
                        .unwrap_or_else(|e| reject(&e))
                }
                "--validate" => o.validate = true,
                "--steps" => o.steps = whole("--steps", &val("--steps")),
                "--batch" => o.batch = at_least_one("--batch", &val("--batch")),
                "--incremental" => o.incremental = true,
                "--strategy" => {
                    o.strategy = match val("--strategy").as_str() {
                        "custom" => Strategy::Custom,
                        "dbscan" => Strategy::ExactDbscan,
                        "hnsw" => Strategy::hnsw_default(),
                        "minhash" => Strategy::minhash_default(),
                        other => reject(&format!(
                            "--strategy must be custom, dbscan, hnsw or minhash, got {other}"
                        )),
                    }
                }
                "--hnsw-batch" => o.hnsw_batch = Some(whole("--hnsw-batch", &val("--hnsw-batch"))),
                other => reject(&format!("unknown flag {other:?} (see `repro help`)")),
            }
        }
        o
    }
}

/// Prints `msg` and exits 1: the answer to a flag value no command can
/// honour.
fn reject(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Parses a count flag that must be at least 1.
fn at_least_one(flag: &str, raw: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => reject(&format!("{flag} must be a whole number >= 1, got {raw}")),
    }
}

/// Parses a whole-number flag.
fn whole<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| reject(&format!("{flag} must be a whole number, got {raw}")))
}

/// Parses a flag that must lie in (0, 1].
fn unit_interval(flag: &str, raw: &str) -> f64 {
    // Written so that NaN fails too.
    match raw.parse::<f64>() {
        Ok(x) if x > 0.0 && x <= 1.0 => x,
        _ => reject(&format!("{flag} must be in (0, 1], got {raw}")),
    }
}

enum SweepAxis {
    Users,
    Roles,
}

/// Figures 2 and 3: mean ± std of 5 runs per point, per method. A method
/// whose last point exceeded the budget is skipped for larger points
/// (mirroring the paper's halted 24-hour baseline runs).
fn sweep(axis: SweepAxis, opts: &Opts) {
    let (fixed_name, fixed, axis_name) = match axis {
        SweepAxis::Users => ("roles", opts.roles(), "users"),
        SweepAxis::Roles => ("users", opts.users(), "roles"),
    };
    if opts.similar {
        // A perturbed cluster member flips one of the user columns.
        let (flag, fewest_users) = match axis {
            SweepAxis::Users => ("--min", opts.min),
            SweepAxis::Roles => ("--users", fixed),
        };
        if fewest_users == 0 {
            reject(&format!(
                "{flag} must be >= 1 with --similar: a perturbed role flips one user column"
            ));
        }
    }
    let task = if opts.similar { "similar(t=1)" } else { "same" };
    println!(
        "# task={task} {fixed_name}={fixed}, sweeping {axis_name} {}..={} step {}, {} runs/point",
        opts.min, opts.max, opts.step, opts.runs
    );
    let mut chart_series: Vec<rolediet_bench::chart::Series> = Vec::new();
    let glyphs = ['d', 'h', 'c'];
    for (si, strategy) in paper_strategies().into_iter().enumerate() {
        let mut points: Vec<SweepPoint> = Vec::new();
        let mut over_budget = false;
        for x in (opts.min..=opts.max).step_by(opts.step) {
            if over_budget {
                println!("{:<14} x={x:<6} SKIPPED (over budget)", strategy.name());
                continue;
            }
            let (roles, users) = match axis {
                SweepAxis::Users => (fixed, x),
                SweepAxis::Roles => (x, fixed),
            };
            let mut samples = Vec::with_capacity(opts.runs);
            let mut found = 0usize;
            for run in 0..opts.runs {
                // T5 sweeps plant one perturbed (Hamming-1) member per
                // cluster so there are true similar pairs to find.
                let m =
                    rolediet_bench::sweep_matrix_with(roles, users, run, usize::from(opts.similar));
                let (d, n) = if opts.similar {
                    let t = m.transpose();
                    time_similar_pairs_with(&m, &t, &strategy, 1, opts.parallelism())
                } else {
                    time_same_groups_with(&m, &strategy, opts.parallelism())
                };
                samples.push(d);
                found = n;
                if d > opts.budget {
                    over_budget = true;
                    break;
                }
            }
            let (mean, std) = mean_std(&samples);
            points.push(SweepPoint {
                x,
                mean_secs: mean,
                std_secs: std,
                found,
            });
        }
        print!("{}", format_series(strategy.name(), &points));
        chart_series.push(rolediet_bench::chart::Series {
            name: strategy.name().to_owned(),
            glyph: glyphs[si % glyphs.len()],
            points: points.iter().map(|p| (p.x as f64, p.mean_secs)).collect(),
        });
    }
    println!("\n# runtime (s, log scale) vs {axis_name}:");
    print!(
        "{}",
        rolediet_bench::chart::render(
            &chart_series,
            &rolediet_bench::chart::ChartOptions::default()
        )
    );
}

/// Section IV-B: generate the ing-like organization, run the full
/// pipeline with the custom strategy, and print the inefficiency table
/// plus the consolidation saving. `--baselines` additionally times the
/// two baseline strategies on the same RUAM (with the budget cap).
fn realorg(opts: &Opts) {
    println!(
        "# organization scale={}, seed={}, threads={}",
        opts.scale(1.0),
        opts.seed,
        opts.parallelism().threads()
    );
    let t0 = Instant::now();
    let org = opts.realorg_subject();
    println!("# generated in {:.2?}", t0.elapsed());
    let stats = DatasetStats::compute(&org.graph);
    println!(
        "# users={} roles={} permissions={} user-edges={} perm-edges={}",
        stats.users,
        stats.roles,
        stats.permissions,
        stats.user_assignments,
        stats.permission_grants
    );

    let mut cfg = DetectionConfig {
        parallelism: opts.parallelism(),
        ..DetectionConfig::with_strategy(opts.strategy)
    };
    if let Some(b) = opts.hnsw_batch {
        cfg.hnsw_batch = b;
    }
    let t0 = Instant::now();
    let report = Pipeline::new(cfg).run(&org.graph);
    let detect_time = t0.elapsed();
    if opts.validate {
        let t0 = Instant::now();
        match rolediet_core::validate::validate_report_against_graph(&report, &org.graph) {
            Ok(()) => println!("# report validators passed in {:.2?}", t0.elapsed()),
            Err(msg) => {
                eprintln!("report validation FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    println!("\n{}", report.summary_table());
    println!("{} pipeline total: {detect_time:.2?}", opts.strategy.name());
    println!(
        "  matrix={:.2?} degrees={:.2?} same(u)={:.2?} same(p)={:.2?} similar(u)={:.2?} similar(p)={:.2?} engine={:.2?}",
        report.timings.matrix_build,
        report.timings.degree_detectors,
        report.timings.same_users,
        report.timings.same_permissions,
        report.timings.similar_users,
        report.timings.similar_permissions,
        report.timings.engine_build,
    );

    // Planted-vs-detected cross-check (the advantage of a synthetic org).
    println!("\n# planted vs detected");
    let rows = [
        (
            "standalone users",
            org.truth.standalone_users.len(),
            report.standalone_users.len(),
        ),
        (
            "standalone permissions",
            org.truth.standalone_permissions.len(),
            report.standalone_permissions.len(),
        ),
        (
            "userless roles",
            org.truth.userless_roles.len(),
            report.userless_roles.len(),
        ),
        (
            "permless roles",
            org.truth.permless_roles.len(),
            report.permless_roles.len(),
        ),
        (
            "single-user roles",
            org.truth.single_user_roles.len(),
            report.single_user_roles.len(),
        ),
        (
            "single-permission roles",
            org.truth.single_permission_roles.len(),
            report.single_permission_roles.len(),
        ),
        (
            "roles in same-user groups",
            2 * org.truth.same_user_pairs.len(),
            report.roles_in_same_groups(Side::User),
        ),
        (
            "roles in same-permission groups",
            2 * org.truth.same_permission_pairs.len(),
            report.roles_in_same_groups(Side::Permission),
        ),
        (
            "roles in similar-user pairs",
            2 * org.truth.similar_user_pairs.len(),
            report.roles_in_similar_pairs(Side::User),
        ),
        (
            "roles in similar-permission pairs",
            2 * org.truth.similar_permission_pairs.len(),
            report.roles_in_similar_pairs(Side::Permission),
        ),
    ];
    for (name, planted, detected) in rows {
        println!("{name:<34} planted={planted:<8} detected={detected}");
    }

    let plan = MergePlan::from_report(&report, org.graph.n_roles(), true);
    let outcome = plan.apply(&org.graph);
    let violations =
        rolediet_core::consolidate::verify_preserves_access(&org.graph, &outcome.graph);
    println!(
        "\nconsolidation: {} of {} roles removable ({:.1}%), access-preservation violations={}",
        outcome.roles_removed,
        org.graph.n_roles(),
        100.0 * outcome.roles_removed as f64 / org.graph.n_roles() as f64,
        violations.len()
    );

    if opts.baselines {
        println!("\n# baselines on the same RUAM (budget {:?})", opts.budget);
        let ruam = org.graph.ruam_sparse();
        for strategy in [Strategy::ExactDbscan, Strategy::hnsw_default()] {
            let start = Instant::now();
            let (d, groups) = time_same_groups_with(&ruam, &strategy, opts.parallelism());
            if start.elapsed() > opts.budget {
                println!("{:<14} HALTED after {:.2?}", strategy.name(), d);
            } else {
                println!(
                    "{:<14} same-users: {:.2?} ({groups} groups)",
                    strategy.name(),
                    d
                );
            }
        }
    }
}

/// Recall ablation: HNSW recall/latency vs `ef_search`, and MinHash LSH,
/// against the exact duplicate pair set.
fn recall(opts: &Opts) {
    use rolediet_cluster::recall::{groups_to_pairs, pair_stats};
    use rolediet_core::strategy::find_same_groups;
    use rolediet_core::Parallelism;

    let m = sweep_matrix(opts.roles(), opts.users(), 0);
    let truth_groups = find_same_groups(&m, &Strategy::Custom, Parallelism::Sequential);
    let truth_pairs = groups_to_pairs(&truth_groups);
    println!(
        "# roles={} users={} true duplicate pairs={}",
        opts.roles(),
        opts.users(),
        truth_pairs.len()
    );
    for ef in [8usize, 16, 32, 64, 128, 256] {
        let params = rolediet_cluster::hnsw::HnswParams {
            ef_search: ef,
            ..Default::default()
        };
        let strategy = Strategy::ApproxHnsw {
            params,
            probe_k: 16,
        };
        let start = Instant::now();
        let groups = find_same_groups(&m, &strategy, Parallelism::Sequential);
        let elapsed = start.elapsed();
        let stats = pair_stats(&truth_pairs, &groups_to_pairs(&groups));
        println!(
            "hnsw ef={ef:<4} recall={:.4} precision={:.4} time={elapsed:.2?}",
            stats.recall, stats.precision
        );
    }
    let start = Instant::now();
    let groups = find_same_groups(&m, &Strategy::minhash_default(), Parallelism::Sequential);
    let elapsed = start.elapsed();
    let stats = pair_stats(&truth_pairs, &groups_to_pairs(&groups));
    println!(
        "minhash-lsh  recall={:.4} precision={:.4} time={elapsed:.2?}",
        stats.recall, stats.precision
    );
}

/// Periodic-cleanup convergence: the paper argues approximate methods are
/// acceptable because periodic runs converge; this prints the per-round
/// trace for each strategy on an ing-like organization.
fn periodic(opts: &Opts) {
    use rolediet_core::periodic::simulate_periodic_cleanup;
    let scale = opts.scale(0.05);
    println!(
        "# ing-like organization at scale {scale}, seed {}",
        opts.seed
    );
    let org = rolediet_synth::profiles::generate_ing_like(scale, opts.seed);
    for strategy in [
        Strategy::Custom,
        Strategy::hnsw_default(),
        Strategy::minhash_default(),
    ] {
        let t0 = Instant::now();
        let (trace, final_graph) =
            simulate_periodic_cleanup(&org.graph, DetectionConfig::with_strategy(strategy), 25);
        println!(
            "\n{}: converged={} rounds={} removed={} final_roles={} ({:.2?})",
            strategy.name(),
            trace.converged,
            trace.n_rounds(),
            trace.total_removed(),
            final_graph.n_roles(),
            t0.elapsed()
        );
        for r in &trace.rounds {
            println!(
                "  round {}: groups={} removed={} remaining={}",
                r.round, r.groups_found, r.roles_removed, r.roles_remaining
            );
        }
        let residual = Pipeline::new(DetectionConfig::default()).run(&final_graph);
        println!(
            "  residual duplicates under exact detection: {}",
            residual.same_user_groups.len() + residual.same_permission_groups.len()
        );
    }
}

/// Refine-vs-regenerate on a churned organization (the D'Antoni et al.
/// claim the paper leans on: refining existing roles beats regenerating
/// them from scratch). The ing-like organization is first aged with
/// `--steps` simulated churn events, then both repair strategies run on
/// the aged graph:
///
/// * **refine (diet)**: periodic duplicate-consolidation rounds — keeps
///   role metadata/ownership, only removes redundancy;
/// * **regenerate (mine)**: discard the role set and mine a fresh exact
///   cover from the user→permission assignments with the lazy-greedy
///   engine (at `--threads`) — every mined cover is verified exact.
fn mining(opts: &Opts) {
    use rolediet_core::periodic::simulate_periodic_cleanup;
    use rolediet_mining::{mine_greedy_cover_with, verify_exact_cover, MiningConfig};
    use rolediet_synth::churn::{ChurnSimulator, ChurnWeights};

    let scale = opts.scale(0.02);
    println!(
        "# ing-like organization at scale {scale}, seed {}, aged by {} churn events, threads {}",
        opts.seed,
        opts.steps,
        opts.parallelism().threads()
    );
    let org = rolediet_synth::profiles::generate_ing_like(scale, opts.seed);
    let mut sim = ChurnSimulator::from_graph(org.graph, ChurnWeights::default(), opts.seed);
    sim.run(opts.steps);
    sim.drain_deltas();
    let graph = sim.graph();
    println!(
        "# aged organization: users={} roles={} permissions={} assignments={}",
        graph.n_users(),
        graph.n_roles(),
        graph.n_permissions(),
        graph.n_user_assignments()
    );

    let t0 = Instant::now();
    let (trace, cleaned) = simulate_periodic_cleanup(graph, DetectionConfig::default(), 10);
    let diet_time = t0.elapsed();
    println!(
        "refine (diet) : {} -> {} roles, {} assignments, in {diet_time:.2?} \
         ({} cleanup rounds; metadata preserved, access verified)",
        graph.n_roles(),
        cleaned.n_roles(),
        cleaned.n_user_assignments(),
        trace.n_rounds()
    );

    let threads = opts.parallelism().threads();
    let t0 = Instant::now();
    let upam = graph.upam_sparse_with(threads);
    let mined = mine_greedy_cover_with(&upam, &MiningConfig::default(), threads)
        .expect("generated candidate pools always cover the matrix");
    let mine_time = t0.elapsed();
    verify_exact_cover(&upam, &mined.roles).expect("mined cover must be exact");
    println!(
        "regenerate    : {} -> {} roles, {} assignments, in {mine_time:.2?} \
         ({} candidates; cover verified exact, all metadata lost)",
        graph.n_roles(),
        mined.n_roles(),
        mined.n_assignments(),
        mined.candidates_considered
    );
    println!(
        "# refine keeps {} of {} roles; regeneration rebuilds {} roles from zero",
        cleaned.n_roles(),
        graph.n_roles(),
        mined.n_roles()
    );
}

/// Simulated churn over an ing-like organization, re-detecting per event
/// batch. With `--incremental` the findings are additionally refreshed
/// online through [`rolediet_core::IncrementalPipeline::apply_batch`],
/// which is what the per-batch refresh time measures. After every batch
/// its delta is asserted equal to the difference of the two batch reruns,
/// and the maintained report bit-identical to the rerun; the total
/// refresh-vs-rerun speedup is printed at the end.
fn churn(opts: &Opts) {
    use rolediet_core::report::StageTimings;
    use rolediet_synth::churn::{ChurnSimulator, ChurnWeights};

    let scale = opts.scale(0.05);
    println!(
        "# ing-like organization at scale {scale}, seed {}, {} steps in batches of {}",
        opts.seed, opts.steps, opts.batch
    );
    let org = rolediet_synth::profiles::generate_ing_like(scale, opts.seed);
    let mut sim = ChurnSimulator::from_graph(org.graph, ChurnWeights::default(), opts.seed);
    let cfg = DetectionConfig {
        parallelism: opts.parallelism(),
        ..DetectionConfig::default()
    };
    let pipeline = Pipeline::new(cfg);
    let mut inc = opts.incremental.then(|| pipeline.incremental(sim.graph()));
    sim.drain_deltas();
    let mut previous = pipeline.run(sim.graph());
    let (mut apply_total, mut rerun_total) = (Duration::ZERO, Duration::ZERO);
    let mut done = 0usize;
    while done < opts.steps {
        let steps = opts.batch.min(opts.steps - done);
        done += steps;
        sim.run(steps);
        let stream = sim.drain_deltas();
        let t0 = Instant::now();
        let mut report = pipeline.run(sim.graph());
        let rerun = t0.elapsed();
        rerun_total += rerun;
        let delta = rolediet_core::ReportDelta::between(&previous, &report);
        print!(
            "batch of {steps:>4} events ({:>4} deltas): {:>3} findings changed, rerun {rerun:.2?}",
            stream.len(),
            delta.change_count()
        );
        if let Some(inc) = &mut inc {
            let t0 = Instant::now();
            let refreshed = inc.apply_batch(&stream).expect("recorded stream applies");
            let apply = t0.elapsed();
            apply_total += apply;
            assert_eq!(
                refreshed, delta,
                "incremental delta diverged from the batch reruns' difference"
            );
            report.timings = StageTimings::default();
            assert_eq!(
                inc.report(),
                report,
                "incremental findings diverged from the batch rerun"
            );
            print!(", incremental {apply:.2?} (verified identical)");
        }
        println!();
        previous = report;
    }
    if opts.incremental {
        println!(
            "total: rerun {rerun_total:.2?}, incremental {apply_total:.2?} ({:.1}x)",
            rerun_total.as_secs_f64() / apply_total.as_secs_f64().max(1e-9)
        );
    }
}

/// Prints the worked co-occurrence matrix of Section III-C for the
/// Figure 1 RUAM.
fn cooccur_example() {
    use rolediet_matrix::ops::gram_matrix;
    let graph = rolediet_model::TripartiteGraph::figure1_example();
    let ruam = graph.ruam_sparse();
    let c = gram_matrix(&ruam);
    println!("co-occurrence matrix C (RUAM of Figure 1):");
    print!("     ");
    for j in 1..=c.len() {
        print!(" R{j:02}");
    }
    println!();
    for (i, row) in c.iter().enumerate() {
        print!("R{:02} |", i + 1);
        for v in row {
            print!(" {v:>3}");
        }
        println!();
    }
    println!(
        "\nindicator |Ri| = g_ij = |Rj| holds for (R02, R04): groups = {:?}",
        rolediet_core::cooccur::same_groups(&ruam)
    );
}
