//! Self-tests: every seeded fixture under `tests/fixtures/` trips its
//! rule (through the library *and* through the real binary's exit
//! code), the clean fixture passes under the strictest classification,
//! and the actual workspace lints clean with the checked-in allowlist.

use std::path::{Path, PathBuf};
use std::process::Command;

use rolediet_lint::rules::{classify, scan_file};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scans a fixture as if it lived at `rel` inside the workspace.
fn scan_as(rel: &str, src: &str) -> Vec<rolediet_lint::rules::Violation> {
    let class = classify(rel).unwrap_or_else(|| panic!("{rel} must classify"));
    scan_file(&class, src)
}

fn rules_hit(violations: &[rolediet_lint::rules::Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn d1_fixture_trips_outside_substrate_only() {
    let src = fixture("d1_thread_spawn.rs");
    assert_eq!(
        rules_hit(&scan_as("crates/core/src/seeded.rs", &src)),
        ["D1"]
    );
    // The same tokens inside the substrate file are the substrate.
    assert!(scan_as("crates/matrix/src/parallel.rs", &src).is_empty());
}

#[test]
fn d2_fixture_trips_in_order_sensitive_crates_only() {
    let src = fixture("d2_hash_iteration.rs");
    assert_eq!(
        rules_hit(&scan_as("crates/matrix/src/seeded.rs", &src)),
        ["D2"]
    );
    // `model` is outside D2's scope (its maps never reach reports raw).
    assert!(scan_as("crates/model/src/seeded.rs", &src).is_empty());
}

#[test]
fn d3_fixture_trips_missing_attrs_and_shadow_binding() {
    let src = fixture("d3_unsafe_hygiene.rs");
    let hits = scan_as("crates/cluster/src/lib.rs", &src);
    assert_eq!(rules_hit(&hits), ["D3"]);
    let missing_attrs = hits.iter().filter(|v| v.line == 0).count();
    assert_eq!(missing_attrs, 2, "both hygiene attributes reported missing");
    assert!(
        hits.iter().any(|v| v.line > 0 && v.msg.contains("unsafe_")),
        "the keyword-adjacent binding is flagged: {hits:?}"
    );
}

#[test]
fn d4_fixture_trips_in_library_code_only() {
    let src = fixture("d4_unwrap.rs");
    let hits = scan_as("crates/model/src/seeded.rs", &src);
    assert_eq!(rules_hit(&hits), ["D4"]);
    assert_eq!(hits.len(), 4, "two unwraps + two expects: {hits:?}");
    assert!(scan_as("crates/model/tests/seeded.rs", &src).is_empty());
}

#[test]
fn d5_fixture_trips_outside_timings_plumbing() {
    let src = fixture("d5_wall_clock.rs");
    assert_eq!(
        rules_hit(&scan_as("crates/synth/src/seeded.rs", &src)),
        ["D5"]
    );
    assert!(scan_as("crates/core/src/pipeline.rs", &src).is_empty());
    assert!(scan_as("crates/bench/src/seeded.rs", &src).is_empty());
}

#[test]
fn clean_fixture_passes_strictest_classification() {
    let src = fixture("clean.rs");
    // Crate root of an order-sensitive library crate: D2/D3/D4 all apply.
    assert!(scan_as("crates/matrix/src/lib.rs", &src).is_empty());
}

/// Builds a throwaway one-file workspace and returns its root.
fn seeded_workspace(test_name: &str, rel: &str, fixture_name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("rolediet-lint-{}-{test_name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write_file(&root, rel, &fixture(fixture_name));
    root
}

fn write_file(root: &Path, rel: &str, content: &str) {
    let target = root.join(rel);
    std::fs::create_dir_all(target.parent().expect("fixture path has a parent"))
        .expect("create workspace dirs");
    std::fs::write(&target, content).expect("write fixture");
}

/// Runs the real binary against `root`; returns (exit code, stdout).
fn lint_run(root: &Path, extra: &[&str]) -> (i32, String) {
    let mut args = vec!["--root".to_owned(), root.display().to_string()];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    let output = Command::new(env!("CARGO_BIN_EXE_rolediet-lint"))
        .args(&args)
        .output()
        .expect("run rolediet-lint");
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn lint_exit_code(root: &Path) -> i32 {
    lint_run(root, &["--quiet"]).0
}

#[test]
fn binary_exits_nonzero_on_each_seeded_rule() {
    let cases = [
        ("bin-d1", "crates/core/src/seeded.rs", "d1_thread_spawn.rs"),
        (
            "bin-d2",
            "crates/matrix/src/seeded.rs",
            "d2_hash_iteration.rs",
        ),
        (
            "bin-d3",
            "crates/cluster/src/lib.rs",
            "d3_unsafe_hygiene.rs",
        ),
        ("bin-d4", "crates/model/src/seeded.rs", "d4_unwrap.rs"),
        ("bin-d5", "crates/synth/src/seeded.rs", "d5_wall_clock.rs"),
    ];
    for (name, rel, fixture_name) in cases {
        let root = seeded_workspace(name, rel, fixture_name);
        assert_eq!(
            lint_exit_code(&root),
            1,
            "{fixture_name} must fail the lint"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let root = seeded_workspace("bin-clean", "crates/matrix/src/lib.rs", "clean.rs");
    assert_eq!(lint_exit_code(&root), 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Each interprocedural fixture trips exactly its rule, observed
/// through the real binary's `--json` output.
#[test]
fn interprocedural_fixtures_trip_their_rules() {
    let cases = [
        ("bin-d6", "crates/core/src/pipeline.rs", "d6_taint.rs", "D6"),
        (
            "bin-d7",
            "crates/matrix/src/seeded.rs",
            "d7_panic_surface.rs",
            "D7",
        ),
        (
            "bin-d8",
            "crates/cluster/src/seeded.rs",
            "d8_static_capture.rs",
            "D8",
        ),
    ];
    for (name, rel, fixture_name, rule) in cases {
        let root = seeded_workspace(name, rel, fixture_name);
        let (code, json) = lint_run(&root, &["--json"]);
        assert_eq!(code, 1, "{fixture_name} must fail the lint");
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "{fixture_name} must report {rule}: {json}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A library fn whose closure shares its name with a panicking
/// `#[cfg(test)]` helper is not on the D7 surface: a library build
/// compiles no test region, so no call from library code resolves into
/// one.
#[test]
fn d7_never_resolves_library_calls_into_test_helpers() {
    let root = seeded_workspace(
        "bin-d7-test-only-name",
        "crates/matrix/src/seeded.rs",
        "d7_test_only_name.rs",
    );
    let (code, json) = lint_run(&root, &["--json"]);
    assert_eq!(code, 0, "no finding expected: {json}");
    assert!(!json.contains("\"rule\":\"D7\""), "{json}");
    let _ = std::fs::remove_dir_all(&root);
}

/// The D6 regression fixture (a source two calls deep under
/// `Pipeline::run`) is reported with its full call chain end to end:
/// `--explain` prints `Pipeline::run → stage → helper`.
#[test]
fn explain_prints_the_taint_chain() {
    let root = seeded_workspace(
        "bin-d6-explain",
        "crates/core/src/pipeline.rs",
        "d6_taint.rs",
    );
    let (code, out) = lint_run(&root, &["--explain", "--quiet"]);
    assert_eq!(code, 1);
    for hop in ["Pipeline::run (", "stage (", "helper ("] {
        assert!(out.contains(hop), "chain hop {hop:?} missing from:\n{out}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `--strict` promotes allowlist warnings (here: a stale entry for a
/// file with no findings) to a failing exit.
#[test]
fn strict_promotes_stale_allowlist_to_error() {
    let root = seeded_workspace("bin-strict", "crates/matrix/src/lib.rs", "clean.rs");
    write_file(
        &root,
        "crates/lint/allowlist.txt",
        "D4 crates/matrix/src/lib.rs 3  # stale: the expects were removed\n",
    );
    assert_eq!(lint_run(&root, &["--quiet"]).0, 0, "warnings alone pass");
    assert_eq!(
        lint_run(&root, &["--strict", "--quiet"]).0,
        1,
        "strict mode fails on the stale entry"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `--fix-allowlist` rewrites slack ratchets down to the observed count
/// and drops stale entries, preserving everything else.
#[test]
fn fix_allowlist_tightens_ratchets_in_place() {
    let root = seeded_workspace("bin-fix", "crates/model/src/seeded.rs", "d4_unwrap.rs");
    let allow_rel = "crates/lint/allowlist.txt";
    write_file(
        &root,
        allow_rel,
        "# audited debt\n\
         D4 crates/model/src/seeded.rs 9  # slack: audit note survives\n\
         D4 crates/model/src/gone.rs   2  # stale: file no longer exists\n",
    );
    let (code, _) = lint_run(&root, &["--fix-allowlist"]);
    assert_eq!(code, 0);
    let rewritten = std::fs::read_to_string(root.join(allow_rel)).expect("read allowlist");
    assert!(
        rewritten.contains("D4 crates/model/src/seeded.rs 4  # slack: audit note survives"),
        "ratchet tightened to the observed count: {rewritten}"
    );
    assert!(
        !rewritten.contains("gone.rs"),
        "stale entry dropped: {rewritten}"
    );
    assert!(rewritten.contains("# audited debt"), "comments preserved");
    let _ = std::fs::remove_dir_all(&root);
}

/// The adversarial fixture pins over-but-never-under approximation:
/// every real item and call edge is recovered; no item is invented
/// from fn-shaped text inside strings.
#[test]
fn adversarial_fixture_parses_and_links_soundly() {
    use rolediet_lint::graph::Workspace;
    use rolediet_lint::rules::classify;

    let src = fixture("adversarial.rs");
    let class = classify("crates/core/src/adversarial.rs").expect("classifies");
    let graph = Workspace::build(vec![(class, src)]);

    let names: Vec<&str> = graph.fns.iter().map(|f| f.name.as_str()).collect();
    for real in [
        "outer",
        "target",
        "shadower",
        "helper_fn_impl",
        "takes_impl",
        "raw_strings",
    ] {
        assert!(names.contains(&real), "missing item {real}: {names:?}");
    }
    for fake in ["fake_in_raw", "fake_in_str"] {
        assert!(!names.contains(&fake), "string text parsed as item: {fake}");
    }

    let id_of = |name: &str| {
        graph
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} indexed"))
    };
    let edges = |name: &str| &graph.edges[id_of(name)];
    assert!(
        edges("outer").contains(&id_of("target")),
        "call through nested closures resolves"
    );
    assert!(
        edges("shadower").contains(&id_of("helper_fn_impl")),
        "shadowed local binding does not hide the fn call"
    );
    assert!(
        edges("takes_impl").contains(&id_of("target")),
        "impl Trait argument does not derail body scanning"
    );
}

/// The repository itself must lint clean with the checked-in allowlist —
/// this is the same gate `scripts/verify.sh` runs, enforced from
/// `cargo test` too so a violation cannot land through a partial check.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = rolediet_lint::run(&root).expect("lint run");
    assert!(
        outcome.violations.is_empty(),
        "workspace lint violations:\n{}",
        outcome
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(outcome.files_scanned > 50, "walker found the workspace");
}
