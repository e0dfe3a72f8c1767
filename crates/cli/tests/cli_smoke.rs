//! End-to-end smoke tests of the `rolediet` binary: generate → stats →
//! detect → consolidate on real files in a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rolediet"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rolediet-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_lists_commands() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("detect"));
    assert!(text.contains("consolidate"));
}

#[test]
fn missing_command_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_flag_fails_cleanly() {
    let out = bin().args(["detect", "--nope"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn misspelled_flag_is_rejected_not_ignored() {
    let out = bin()
        .args(["detect", "--threshhold", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threshhold"), "{stderr}");
    assert!(stderr.contains("--threshold"), "{stderr}");
}

#[test]
fn thread_counts_outside_one_to_the_ceiling_are_rejected() {
    let dir = tmpdir("threads");
    let (users, perms) = (dir.join("u.csv"), dir.join("p.csv"));
    std::fs::write(&users, "R0,U0\nR1,U0\n").unwrap();
    std::fs::write(&perms, "R0,P0\nR1,P1\n").unwrap();
    for threads in ["0", "100000"] {
        let out = bin()
            .args(["detect", "--users", users.to_str().unwrap()])
            .args(["--perms", perms.to_str().unwrap(), "--threads", threads])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--threads {threads}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--threads"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn huge_threshold_matches_a_column_sized_one() {
    // 40 roles of 3-9 users and 2-12 permissions, chained by overlaps;
    // no Hamming distance comes near 100000.
    let dir = tmpdir("hugethreshold");
    let (users, perms) = (dir.join("u.csv"), dir.join("p.csv"));
    let (mut u, mut p) = (String::new(), String::new());
    for r in 0..40 {
        for x in 0..r % 7 + 3 {
            u += &format!("R{r},U{}\n", (5 * r + x) % 60);
        }
        for x in 0..r % 11 + 2 {
            p += &format!("R{r},P{}\n", (7 * r + x) % 90);
        }
    }
    std::fs::write(&users, u).unwrap();
    std::fs::write(&perms, p).unwrap();
    let (users, perms) = (users.to_str().unwrap(), perms.to_str().unwrap());
    // The T5 lines of one `detect` run.
    let t5 = |flags: &str, threshold: &str| {
        let out = bin()
            .args(["detect", "--users", users, "--perms", perms])
            .args(["--threshold", threshold])
            .args(flags.split_whitespace())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flags}: {stderr}");
        let text = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("T5")).collect();
        lines.join("\n")
    };
    let huge = usize::MAX.to_string();
    for flags in [
        "--strategy custom",
        "--strategy dbscan",
        "--strategy dbscan --memory-budget 1",
        "--strategy hnsw",
        "--strategy minhash",
    ] {
        assert_eq!(t5(flags, &huge), t5(flags, "100000"), "{flags}");
    }
    // Every role is within the threshold of another.
    let exact = t5("--strategy dbscan --memory-budget 1", &huge);
    assert!(exact.lines().all(|l| l.ends_with(" 40")), "{exact}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_files_fail_with_message() {
    let out = bin().args(["detect"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--users"));

    let out = bin()
        .args([
            "detect",
            "--users",
            "/nonexistent.csv",
            "--perms",
            "/nonexistent.csv",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn out_of_range_scale_is_rejected_not_a_panic() {
    let dir = tmpdir("badscale");
    let prefix = dir.join("org");
    for scale in ["5", "0", "NaN"] {
        let out = bin()
            .args(["generate", "--profile", "ing", "--scale", scale, "--out"])
            .arg(&prefix)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--scale {scale}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--scale must be in (0, 1]"),
            "--scale {scale}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_strategy_name_rejected() {
    let dir = tmpdir("badstrategy");
    let f = dir.join("x.csv");
    std::fs::write(&f, "r,u\n").unwrap();
    let out = bin()
        .args([
            "detect",
            "--users",
            f.to_str().unwrap(),
            "--perms",
            f.to_str().unwrap(),
            "--strategy",
            "kmeans",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("kmeans"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_strategies_run_on_tiny_input() {
    let dir = tmpdir("strategies");
    let users = dir.join("u.csv");
    let perms = dir.join("p.csv");
    std::fs::write(&users, "r1,u1\nr2,u1\n").unwrap();
    std::fs::write(&perms, "r1,p1\nr2,p1\n").unwrap();
    for strategy in ["custom", "dbscan", "hnsw", "minhash"] {
        let out = bin()
            .args([
                "detect",
                "--users",
                users.to_str().unwrap(),
                "--perms",
                perms.to_str().unwrap(),
                "--strategy",
                strategy,
                "--threshold",
                "2",
                "--threads",
                "2",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "strategy {strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        // r1 and r2 share user u1 and permission p1 → both T4 groups.
        assert!(text.contains("r1, r2"), "strategy {strategy}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_stats_detect_consolidate_roundtrip() {
    let dir = tmpdir("roundtrip");
    let prefix = dir.join("org");
    let prefix = prefix.to_str().unwrap();

    // generate
    let out = bin()
        .args([
            "generate",
            "--profile",
            "small",
            "--seed",
            "3",
            "--out",
            prefix,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let users = format!("{prefix}-users.csv");
    let perms = format!("{prefix}-perms.csv");
    assert!(std::path::Path::new(&users).exists());

    // stats
    let out = bin()
        .args(["stats", "--users", &users, "--perms", &perms])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("RUAM density"), "{text}");

    // detect (with JSON and Markdown reports)
    let json = dir.join("report.json");
    let md = dir.join("report.md");
    let out = bin()
        .args([
            "detect",
            "--users",
            &users,
            "--perms",
            &perms,
            "--strategy",
            "custom",
            "--json",
            json.to_str().unwrap(),
            "--markdown",
            md.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("T4 roles sharing the same users"), "{text}");
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert!(report.get("same_user_groups").is_some());
    let md_text = std::fs::read_to_string(&md).unwrap();
    assert!(
        md_text.starts_with("# RBAC inefficiency report"),
        "{md_text}"
    );

    // suggest
    let out = bin()
        .args(["suggest", "--users", &users, "--perms", &perms])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("role-containment pairs"), "{text}");
    assert!(text.contains("redundant single-link roles"), "{text}");

    // consolidate --apply
    let merged = dir.join("merged");
    let out = bin()
        .args([
            "consolidate",
            "--users",
            &users,
            "--perms",
            &perms,
            "--apply",
            merged.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verified access-preserving"), "{text}");
    assert!(merged.with_file_name("merged-users.csv").exists());

    // Note: the CSV edge-list format cannot carry standalone nodes, so a
    // detect over the merged files must show zero duplicate findings.
    let out = bin()
        .args([
            "detect",
            "--users",
            &format!("{}-users.csv", merged.to_str().unwrap()),
            "--perms",
            &format!("{}-perms.csv", merged.to_str().unwrap()),
            "--no-similar",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("T4 roles sharing the same users"))
        .unwrap();
    assert!(line.trim_end().ends_with(" 0"), "{line}");

    // diff: merged vs original shows removed roles, no access changes.
    let merged_users = format!("{}-users.csv", merged.to_str().unwrap());
    let merged_perms = format!("{}-perms.csv", merged.to_str().unwrap());
    let out = bin()
        .args([
            "diff",
            "--old-users",
            &users,
            "--old-perms",
            &perms,
            "--users",
            &merged_users,
            "--perms",
            &merged_perms,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("users with effective-access changes: 0") || text.contains("no changes"),
        "{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn access_subcommand_reports_classes() {
    let dir = tmpdir("access");
    let users = dir.join("u.csv");
    let perms = dir.join("p.csv");
    // Two roles, both granting p1 to u1/u2 → one identical-access class.
    std::fs::write(&users, "r1,u1\nr2,u2\n").unwrap();
    std::fs::write(&perms, "r1,p1\nr2,p1\n").unwrap();
    let out = bin()
        .args([
            "access",
            "--users",
            users.to_str().unwrap(),
            "--perms",
            perms.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("identical access: u1, u2"), "{text}");
    assert!(text.contains("1 identical-access classes"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trend_subcommand_accumulates_runs() {
    let dir = tmpdir("trend");
    let users = dir.join("u.csv");
    let perms = dir.join("p.csv");
    std::fs::write(&users, "r1,u1\nr2,u1\n").unwrap();
    std::fs::write(&perms, "r1,p1\nr2,p1\n").unwrap();
    let trend = dir.join("trend.json");
    for label in ["q1", "q2"] {
        let out = bin()
            .args([
                "trend",
                "--users",
                users.to_str().unwrap(),
                "--perms",
                perms.to_str().unwrap(),
                "--trend-file",
                trend.to_str().unwrap(),
                "--label",
                label,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = bin()
        .args([
            "trend",
            "--users",
            users.to_str().unwrap(),
            "--perms",
            perms.to_str().unwrap(),
            "--trend-file",
            trend.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("q1,"), "{text}");
    assert!(text.contains("q2,"), "{text}");
    assert!(text.contains("run-3,"), "{text}");
    assert!(text.contains("delta vs previous run"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_on_figure1_csvs() {
    let dir = tmpdir("figure1");
    let users = dir.join("users.csv");
    let perms = dir.join("perms.csv");
    std::fs::write(
        &users,
        "role,user\nR01,U01\nR02,U02\nR02,U03\nR04,U02\nR04,U03\nR05,U04\n",
    )
    .unwrap();
    std::fs::write(
        &perms,
        "role,permission\nR01,P02\nR01,P03\nR03,P04\nR04,P05\nR04,P06\nR05,P05\nR05,P06\n",
    )
    .unwrap();
    let out = bin()
        .args([
            "detect",
            "--users",
            users.to_str().unwrap(),
            "--perms",
            perms.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // R02=R04 same users, R04=R05 same permissions.
    assert!(text.contains("R02, R04"), "{text}");
    assert!(text.contains("R04, R05"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn names_lists_similar_permission_pairs() {
    // r1 = {p1, p2} and r2 = {p1} differ in one permission; their user
    // sets are disjoint, two apart.
    let dir = tmpdir("similarperms");
    let (users, perms) = (dir.join("u.csv"), dir.join("p.csv"));
    std::fs::write(&users, "role,user\nr1,u1\nr2,u2\n").unwrap();
    std::fs::write(&perms, "role,permission\nr1,p1\nr1,p2\nr2,p1\n").unwrap();
    let out = bin()
        .args(["detect", "--users", users.to_str().unwrap()])
        .args(["--perms", perms.to_str().unwrap(), "--names", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let header = "roles with similar permissions (first 5 pairs):";
    let block = text
        .split_once(header)
        .unwrap_or_else(|| panic!("no similar-permission block: {text}"))
        .1;
    assert_eq!(
        block.lines().nth(1),
        Some("  r1 ~ r2 (distance 1)"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_is_thread_count_invariant_and_names_bad_flag_values() {
    let dir = tmpdir("mine");
    let prefix = dir.join("org");
    let prefix = prefix.to_str().unwrap();
    let out = bin()
        .args([
            "generate",
            "--profile",
            "small",
            "--seed",
            "5",
            "--out",
            prefix,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (users, perms) = (format!("{prefix}-users.csv"), format!("{prefix}-perms.csv"));
    let input = ["--users", users.as_str(), "--perms", perms.as_str()];
    // The `mined …` summary line with its wall time cut out.
    let mined = |threads: &str| {
        let out = bin()
            .arg("mine")
            .args(input)
            .args(["--threads", threads])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--threads {threads}: {stderr}");
        let text = String::from_utf8(out.stdout).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with("mined "))
            .unwrap_or_else(|| panic!("no summary line: {text}"));
        let (head, rest) = line.split_once(" in ").unwrap();
        let (_, tail) = rest.split_once(" (").unwrap();
        format!("{head} ({tail}")
    };
    let one = mined("1");
    assert!(one.ends_with("(verified exact)"), "{one}");
    assert_eq!(mined("2"), one);
    // A bad value fails before any work, with a message naming the flag.
    for (cmd, flag) in [
        ("mine", "--max-candidates"),
        ("mine", "--min-shared"),
        ("detect", "--threshold"),
        ("mine", "--names"),
    ] {
        let out = bin()
            .arg(cmd)
            .args(input)
            .args([flag, "x"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd} {flag} x");
        assert!(out.stdout.is_empty(), "{cmd} {flag} x printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{cmd} {flag} x: {stderr}");
        assert!(stderr.contains("\"x\""), "{cmd} {flag} x: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
