//! `rolediet` — command-line RBAC inefficiency detector.
//!
//! ```text
//! rolediet detect      --users a.csv --perms g.csv [--strategy custom] [--threshold 1]
//!                      [--no-similar] [--threads N] [--memory-budget BYTES]
//!                      [--hnsw-batch N] [--json report.json] [--names N]
//! rolediet stats       --users a.csv --perms g.csv
//! rolediet consolidate --users a.csv --perms g.csv [--apply PREFIX] [--keep-standalone]
//! rolediet mine        --users a.csv --perms g.csv [--threads N]
//!                      [--max-candidates N] [--min-shared N]
//! rolediet generate    [--profile small|ing] [--scale F] [--seed N] --out PREFIX
//! ```
//!
//! `--threads N` takes 1 to 256 worker threads
//! (`rolediet_core::config::MAX_THREADS`); any other count is rejected.
//! Every other numeric flag fails on a value that does not parse, with a
//! message naming the flag and the value, before the command does any
//! work.
//!
//! CSV formats: the user file holds `role,user` records; the permission
//! file holds `role,permission` records (header optional, `#` comments
//! allowed).
//!
//! `--hnsw-batch N` sets the generation size of the batch-parallel HNSW
//! build under `--strategy hnsw` (default 64, `0` = sequential insert).
//! It is ignored at one thread, the default, where the build is the
//! sequential insert; the index is the same at every value.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

use rolediet_core::config::parse_thread_count;
use rolediet_core::consolidate::verify_preserves_access;
use rolediet_core::{DetectionConfig, MergePlan, Parallelism, Pipeline, Report, Strategy};
use rolediet_model::io::csv::{read_edges, write_edges, EdgeKind};
use rolediet_model::{DatasetStats, RbacDataset, RoleId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rolediet: {e}");
            ExitCode::from(1)
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// A command's entry point, and the flags it accepts (space-separated
/// groups).
type Command = (fn(&[String]) -> CliResult, &'static [&'static str]);

/// The dataset flags every analysis command reads.
const INPUT: &str = "--users --perms";

/// The detection flags [`build_config`] reads for a pipeline run.
const DETECTION: &str =
    "--strategy --threshold --no-similar --threads --memory-budget --hnsw-batch";

fn run(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        print_help();
        return Err("missing command".into());
    };
    let (command, flags): Command = match cmd.as_str() {
        "detect" => (detect, &[INPUT, DETECTION, "--names --json --markdown"]),
        "stats" => (stats, &[INPUT]),
        "consolidate" => (consolidate, &[INPUT, "--apply --keep-standalone"]),
        "mine" => (
            mine,
            &[INPUT, "--threads --max-candidates --min-shared --names"],
        ),
        "suggest" => (suggest, &[INPUT, DETECTION, "--names"]),
        "diff" => (diff_cmd, &[INPUT, "--old-users --old-perms"]),
        "access" => (access, &[INPUT, "--names"]),
        "trend" => (trend, &[INPUT, DETECTION, "--trend-file --label"]),
        "generate" => (generate, &["--profile --scale --seed --out"]),
        "help" | "--help" | "-h" => {
            print_help();
            return Ok(());
        }
        other => {
            print_help();
            return Err(format!("unknown command {other:?}").into());
        }
    };
    // A misspelled flag fails instead of being ignored.
    let accepted: Vec<&str> = flags.iter().flat_map(|g| g.split_whitespace()).collect();
    let is_unknown = |a: &&String| a.starts_with("--") && !accepted.contains(&a.as_str());
    if let Some(flag) = args[1..].iter().find(is_unknown) {
        let accepted = accepted.join(", ");
        return Err(format!("unknown flag {flag} for `{cmd}`; it accepts {accepted}").into());
    }
    command(&args[1..])
}

fn print_help() {
    eprintln!(
        "rolediet — detect RBAC data inefficiencies (IAM Role Diet)\n\
         \n\
         commands:\n\
         \x20 detect       run all detectors, print the inefficiency table\n\
         \x20 stats        print dataset shape statistics\n\
         \x20 consolidate  plan (and optionally apply) duplicate-role merges\n\
         \x20 mine         regenerate a role set from scratch (lazy-greedy cover)\n\
         \x20 suggest      subset roles, provably redundant roles, merge deltas\n\
         \x20 diff         compare two snapshots (--old-users/--old-perms vs --users/--perms)\n\
         \x20 access       effective user→permission analysis (review classes)\n\
         \x20 trend        append this run's counts to a CSV trend file (--trend-file)\n\
         \x20 generate     write a synthetic organization as CSV\n\
         \n\
         run `rolediet <command> --bad-flag` to see each command's flags"
    );
}

/// `--key value` lookup over raw args.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value of `--name` parsed as `T`, or `None` when the flag is
/// absent. A value that does not parse is an error naming the flag and
/// the value.
fn parsed_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag_value(args, name)
        .map(|raw| {
            raw.parse()
                .map_err(|e| format!("{name}: invalid value {raw:?} ({e})"))
        })
        .transpose()
}

fn load_dataset(args: &[String]) -> Result<RbacDataset, Box<dyn std::error::Error>> {
    let users = flag_value(args, "--users").ok_or("--users <file> is required")?;
    let perms = flag_value(args, "--perms").ok_or("--perms <file> is required")?;
    let mut ds = RbacDataset::new();
    read_edges(
        BufReader::new(File::open(users)?),
        &mut ds,
        EdgeKind::UserAssignments,
    )?;
    read_edges(
        BufReader::new(File::open(perms)?),
        &mut ds,
        EdgeKind::PermissionGrants,
    )?;
    Ok(ds)
}

fn parse_strategy(args: &[String]) -> Result<Strategy, Box<dyn std::error::Error>> {
    Ok(match flag_value(args, "--strategy").unwrap_or("custom") {
        "custom" => Strategy::Custom,
        "dbscan" => Strategy::ExactDbscan,
        "hnsw" => Strategy::hnsw_default(),
        "minhash" => Strategy::minhash_default(),
        other => return Err(format!("unknown strategy {other:?}").into()),
    })
}

fn build_config(args: &[String]) -> Result<DetectionConfig, Box<dyn std::error::Error>> {
    let mut cfg = DetectionConfig::with_strategy(parse_strategy(args)?);
    if let Some(t) = parsed_flag(args, "--threshold")? {
        cfg.similarity.threshold = t;
    }
    if flag_present(args, "--no-similar") {
        cfg.skip_similarity = true;
    }
    if let Some(n) = flag_value(args, "--threads") {
        cfg.parallelism = Parallelism::Threads(parse_thread_count("--threads", n)?);
    }
    if let Some(b) = parsed_flag(args, "--memory-budget")? {
        cfg.memory_budget_bytes = b;
    }
    if let Some(b) = parsed_flag(args, "--hnsw-batch")? {
        cfg.hnsw_batch = b;
    }
    if let Some(n) = parsed_flag(args, "--max-candidates")? {
        cfg.mining.candidates.max_candidates = n;
    }
    if let Some(n) = parsed_flag(args, "--min-shared")? {
        cfg.mining.candidates.min_shared = n;
    }
    Ok(cfg)
}

fn detect(args: &[String]) -> CliResult {
    let cfg = build_config(args)?;
    let show = parsed_flag(args, "--names")?.unwrap_or(5usize);
    let ds = load_dataset(args)?;
    let report = Pipeline::new(cfg).run(ds.graph());
    print!("{}", report.summary_table());
    println!(
        "detection time: {:.2?} (strategy: {})",
        report.timings.total(),
        cfg.strategy.name()
    );
    print_named_findings(&ds, &report, show);
    if let Some(path) = flag_value(args, "--json") {
        let f = BufWriter::new(File::create(path)?);
        serde_json::to_writer_pretty(f, &report)?;
        println!("report written to {path}");
    }
    if let Some(path) = flag_value(args, "--markdown") {
        let md = rolediet_core::render::render_markdown(
            &report,
            &ds,
            &rolediet_core::render::RenderOptions::default(),
        );
        std::fs::write(path, md)?;
        println!("markdown report written to {path}");
    }
    Ok(())
}

/// Prints the first `show` findings of each group type with their names,
/// so the administrator can review concrete roles.
fn print_named_findings(ds: &RbacDataset, report: &Report, show: usize) {
    if show == 0 {
        return;
    }
    let name = |r: usize| ds.role_name(RoleId::from_index(r));
    if !report.same_user_groups.is_empty() {
        println!("\nroles sharing the same users (first {show} groups):");
        for g in report.same_user_groups.iter().take(show) {
            let names: Vec<&str> = g.iter().map(|&r| name(r)).collect();
            println!("  {}", names.join(", "));
        }
    }
    if !report.same_permission_groups.is_empty() {
        println!("roles sharing the same permissions (first {show} groups):");
        for g in report.same_permission_groups.iter().take(show) {
            let names: Vec<&str> = g.iter().map(|&r| name(r)).collect();
            println!("  {}", names.join(", "));
        }
    }
    if !report.similar_user_pairs.is_empty() {
        println!("roles with similar users (first {show} pairs):");
        for p in report.similar_user_pairs.iter().take(show) {
            println!("  {} ~ {} (distance {})", name(p.a), name(p.b), p.distance);
        }
    }
    if !report.similar_permission_pairs.is_empty() {
        println!("roles with similar permissions (first {show} pairs):");
        for p in report.similar_permission_pairs.iter().take(show) {
            println!("  {} ~ {} (distance {})", name(p.a), name(p.b), p.distance);
        }
    }
}

fn stats(args: &[String]) -> CliResult {
    let ds = load_dataset(args)?;
    println!("{}", DatasetStats::compute(ds.graph()));
    Ok(())
}

fn consolidate(args: &[String]) -> CliResult {
    let ds = load_dataset(args)?;
    let cfg = DetectionConfig {
        skip_similarity: true,
        ..DetectionConfig::default()
    };
    let report = Pipeline::new(cfg).run(ds.graph());
    let drop_standalone = !flag_present(args, "--keep-standalone");
    let plan = MergePlan::from_report(&report, ds.graph().n_roles(), drop_standalone);
    println!(
        "plan: {} merges, {} standalone roles to drop, {} roles removable of {}",
        plan.merges.len(),
        plan.drop_standalone.len(),
        plan.roles_removed(),
        ds.graph().n_roles()
    );
    for m in plan.merges.iter().take(10) {
        let absorbed: Vec<&str> = m.absorbed.iter().map(|r| ds.role_name(*r)).collect();
        println!(
            "  keep {} <- absorb {} ({:?})",
            ds.role_name(m.keep),
            absorbed.join(", "),
            m.basis
        );
    }
    if let Some(prefix) = flag_value(args, "--apply") {
        let outcome = plan.apply(ds.graph());
        let violations = verify_preserves_access(ds.graph(), &outcome.graph);
        if !violations.is_empty() {
            return Err(format!(
                "refusing to write: consolidation would change access for {} users",
                violations.len()
            )
            .into());
        }
        let merged = ds.rebuild_with_role_map(&outcome.role_map, outcome.graph.n_roles())?;
        write_dataset(&merged, prefix)?;
        println!(
            "applied: {} roles removed, verified access-preserving; written to {prefix}-*.csv",
            outcome.roles_removed
        );
    }
    Ok(())
}

/// Regenerates a role set from the user→permission assignments with the
/// lazy-greedy (CELF) cover engine and contrasts it against the dataset's
/// existing roles — the "regenerate" side of the refine-vs-regenerate
/// comparison (`repro mining` runs it on churned organizations).
fn mine(args: &[String]) -> CliResult {
    let cfg = build_config(args)?;
    let show = parsed_flag(args, "--names")?.unwrap_or(5usize);
    let ds = load_dataset(args)?;
    let threads = cfg.parallelism.threads();
    let start = std::time::Instant::now();
    let upam = ds.graph().upam_sparse_with(threads);
    let result = rolediet_mining::mine_greedy_cover_with(&upam, &cfg.mining, threads)?;
    let elapsed = start.elapsed();
    rolediet_mining::verify_exact_cover(&upam, &result.roles)?;
    println!(
        "mined {} roles / {} assignments from {} candidates in {elapsed:.2?} (verified exact)",
        result.n_roles(),
        result.n_assignments(),
        result.candidates_considered,
    );
    println!(
        "existing model: {} roles / {} assignments for {} users, {} permissions",
        ds.graph().n_roles(),
        ds.graph().n_user_assignments(),
        ds.graph().n_users(),
        ds.graph().n_permissions()
    );
    for (i, role) in result.roles.iter().take(show).enumerate() {
        println!(
            "  mined role {i}: {} permission(s), {} user(s)",
            role.permissions.len(),
            role.users.len()
        );
    }
    Ok(())
}

/// Consolidation suggestions beyond exact duplicates: role-containment
/// pairs, provably redundant single-link roles, and access deltas for the
/// similar-role merges.
fn suggest(args: &[String]) -> CliResult {
    use rolediet_core::suggest::{
        redundant_single_link_roles, subset_pairs, unsafe_similar_merges,
    };
    let cfg = build_config(args)?;
    let show = parsed_flag(args, "--names")?.unwrap_or(10usize);
    let ds = load_dataset(args)?;
    let report = Pipeline::new(cfg).run(ds.graph());

    let ruam = ds.graph().ruam_sparse();
    let subsets = subset_pairs(&ruam, &ruam.transpose());
    println!("role-containment pairs (user side): {}", subsets.len());
    for s in subsets.iter().take(show) {
        println!(
            "  users({}) ⊂ users({})",
            ds.role_name(rolediet_model::RoleId::from_index(s.sub)),
            ds.role_name(rolediet_model::RoleId::from_index(s.sup))
        );
    }

    let redundant = redundant_single_link_roles(ds.graph(), &report);
    println!(
        "\nprovably redundant single-link roles (safe to delete): {}",
        redundant.len()
    );
    for r in redundant.iter().take(show) {
        println!(
            "  {} (covers {} user-permission pairs elsewhere)",
            ds.role_name(r.role),
            r.covered_pairs
        );
    }

    let unsafe_user = unsafe_similar_merges(
        ds.graph(),
        &report.similar_user_pairs,
        rolediet_core::Side::User,
    );
    println!(
        "\nsimilar-user merge candidates: {} total, {} would grant new access",
        report.similar_user_pairs.len(),
        unsafe_user.len()
    );
    for (idx, delta) in unsafe_user.iter().take(show) {
        let p = report.similar_user_pairs[*idx];
        println!(
            "  {} ~ {}: would grant {} new user-permission pairs",
            ds.role_name(rolediet_model::RoleId::from_index(p.a)),
            ds.role_name(rolediet_model::RoleId::from_index(p.b)),
            delta.granted_pairs()
        );
    }
    Ok(())
}

/// Compares two snapshots and reports node/edge changes plus users whose
/// effective access changed.
fn diff_cmd(args: &[String]) -> CliResult {
    let old_users = flag_value(args, "--old-users").ok_or("--old-users <file> is required")?;
    let old_perms = flag_value(args, "--old-perms").ok_or("--old-perms <file> is required")?;
    let mut old = RbacDataset::new();
    read_edges(
        BufReader::new(File::open(old_users)?),
        &mut old,
        EdgeKind::UserAssignments,
    )?;
    read_edges(
        BufReader::new(File::open(old_perms)?),
        &mut old,
        EdgeKind::PermissionGrants,
    )?;
    let new = load_dataset(args)?;
    let d = rolediet_model::diff::diff(&old, &new);
    if d.is_empty() {
        println!("no changes");
        return Ok(());
    }
    println!(
        "{} changes: +{}/-{} roles, +{}/-{} users, +{}/-{} permissions, \
         +{}/-{} assignments, +{}/-{} grants",
        d.change_count(),
        d.roles_added.len(),
        d.roles_removed.len(),
        d.users_added.len(),
        d.users_removed.len(),
        d.permissions_added.len(),
        d.permissions_removed.len(),
        d.assignments_added.len(),
        d.assignments_removed.len(),
        d.grants_added.len(),
        d.grants_removed.len(),
    );
    println!(
        "users with effective-access changes: {}",
        d.users_with_access_changes.len()
    );
    for u in d.users_with_access_changes.iter().take(20) {
        println!("  {u}");
    }
    Ok(())
}

fn generate(args: &[String]) -> CliResult {
    let prefix = flag_value(args, "--out").ok_or("--out <prefix> is required")?;
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(7);
    let profile = flag_value(args, "--profile").unwrap_or("small");
    let org = match profile {
        "small" => rolediet_synth::generate_org(rolediet_synth::profiles::small_org(seed)),
        "ing" => {
            let scale: f64 = parsed_flag(args, "--scale")?.unwrap_or(0.05);
            // Written so that NaN fails too.
            let in_range = scale > 0.0 && scale <= 1.0;
            if !in_range {
                return Err(format!("--scale must be in (0, 1], got {scale}").into());
            }
            rolediet_synth::profiles::generate_ing_like(scale, seed)
        }
        other => return Err(format!("unknown profile {other:?} (small|ing)").into()),
    };
    let ds = RbacDataset::from_graph(org.graph);
    write_dataset(&ds, prefix)?;
    println!(
        "generated {} users, {} roles, {} permissions -> {prefix}-users.csv / {prefix}-perms.csv",
        ds.graph().n_users(),
        ds.graph().n_roles(),
        ds.graph().n_permissions()
    );
    Ok(())
}

/// Appends this run's taxonomy counts to a JSON trend file and prints
/// the series as CSV plus the delta against the previous run — the
/// periodic-operations view.
fn trend(args: &[String]) -> CliResult {
    use rolediet_core::history::Trend;
    let cfg = build_config(args)?;
    let ds = load_dataset(args)?;
    let report = Pipeline::new(cfg).run(ds.graph());
    let path = flag_value(args, "--trend-file").ok_or("--trend-file <file> is required")?;
    let mut series: Trend = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Trend::new(),
        Err(e) => return Err(e.into()),
    };
    let label = flag_value(args, "--label")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("run-{}", series.len() + 1));
    series.record(&label, &report, ds.graph());
    std::fs::write(path, serde_json::to_string_pretty(&series)?)?;
    print!("{}", series.to_csv());
    if let Some(delta) = series.latest_delta() {
        println!("\ndelta vs previous run:");
        for (kind, d) in delta {
            if d != 0 {
                println!("  {:<14} {:+}", kind.label(), d);
            }
        }
    }
    Ok(())
}

/// Effective-access analysis: review equivalence classes, zero-access
/// users, containment pairs.
fn access(args: &[String]) -> CliResult {
    let show = parsed_flag(args, "--names")?.unwrap_or(5usize);
    let ds = load_dataset(args)?;
    let a = rolediet_core::access::analyze_access(ds.graph());
    println!(
        "{} users fall into {} access-review items \
         ({} identical-access classes, {} users with no access)",
        ds.graph().n_users(),
        a.review_items,
        a.identical_access_groups.len(),
        a.no_access_users.len()
    );
    for g in a.identical_access_groups.iter().take(show) {
        let names: Vec<&str> = g
            .iter()
            .map(|&u| ds.user_name(rolediet_model::UserId::from_index(u)))
            .collect();
        println!("  identical access: {}", names.join(", "));
    }
    println!(
        "containment pairs (access ⊂ access): {}",
        a.containment_pairs.len()
    );
    Ok(())
}

fn write_dataset(ds: &RbacDataset, prefix: &str) -> CliResult {
    let users = format!("{prefix}-users.csv");
    let perms = format!("{prefix}-perms.csv");
    let mut f = BufWriter::new(File::create(&users)?);
    write_edges(&mut f, ds, EdgeKind::UserAssignments)?;
    f.flush()?;
    let mut f = BufWriter::new(File::create(&perms)?);
    write_edges(&mut f, ds, EdgeKind::PermissionGrants)?;
    f.flush()?;
    Ok(())
}
