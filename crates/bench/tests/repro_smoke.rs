//! Smoke tests for the `repro` harness binary: every subcommand runs and
//! emits its expected markers at miniature scale.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn help_lists_all_experiments() {
    let out = repro().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in [
        "fig2",
        "fig3",
        "realorg",
        "recall",
        "periodic",
        "mining",
        "cooccur-example",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = repro().arg("nonsense").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn cooccur_example_prints_the_paper_matrix() {
    let out = repro().arg("cooccur-example").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("R02 |   0   2   0   2   0"), "{text}");
    assert!(text.contains("[[1, 3]]"), "{text}");
}

#[test]
fn fig2_miniature_sweep_emits_all_series_and_chart() {
    let out = repro()
        .args([
            "fig2", "--min", "120", "--max", "240", "--step", "120", "--runs", "1", "--roles", "80",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    for series in ["exact-dbscan", "approx-hnsw", "custom"] {
        assert!(text.contains(series), "{text}");
    }
    assert!(text.contains("log scale"), "chart rendered: {text}");
}

#[test]
fn realorg_miniature_prints_planted_vs_detected() {
    let out = repro()
        .args(["realorg", "--scale", "0.01", "--seed", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("planted vs detected"), "{text}");
    assert!(text.contains("consolidation:"), "{text}");
    assert!(text.contains("violations=0"), "{text}");
}

#[test]
fn realorg_miniature_with_two_threads_matches_markers() {
    let out = repro()
        .args([
            "realorg",
            "--scale",
            "0.01",
            "--seed",
            "1",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("threads=2"), "{text}");
    assert!(text.contains("planted vs detected"), "{text}");
    assert!(text.contains("consolidation:"), "{text}");
    assert!(text.contains("violations=0"), "{text}");
}

#[test]
fn recall_miniature_reports_rates() {
    let out = repro()
        .args(["recall", "--roles", "150", "--users", "80"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recall="), "{text}");
    assert!(text.contains("minhash-lsh"), "{text}");
}

#[test]
fn mining_miniature_compares_both_approaches() {
    let out = repro()
        .args(["mining", "--scale", "0.01", "--seed", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("refine (diet) :"), "{text}");
    assert!(text.contains("regenerate    :"), "{text}");
    assert!(text.contains("cover verified exact"), "{text}");
}

#[test]
fn out_of_range_scale_is_rejected_not_replaced() {
    for (cmd, scale) in [
        ("churn", "0"),
        ("realorg", "2"),
        ("mining", "NaN"),
        ("periodic", "-0.5"),
    ] {
        let out = repro().args([cmd, "--scale", scale]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd} --scale {scale}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--scale must be in (0, 1]"), "{err}");
    }
}

/// Runs `repro args`, killing it after ten seconds; `None` when it had
/// to be killed.
fn run_bounded(args: &[&str]) -> Option<Output> {
    let mut child = repro()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() >= deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Some(child.wait_with_output().unwrap())
}

#[test]
fn loop_flags_that_cannot_be_honoured_are_rejected() {
    let small = [
        "--roles", "20", "--users", "20", "--min", "10", "--max", "20",
    ];
    for (cmd, flag, value, extra) in [
        ("fig2", "--step", "0", None),
        ("fig3", "--step", "0", None),
        ("fig2", "--runs", "0", None),
        ("fig3", "--runs", "0", Some("--similar")),
        ("fig2", "--min", "0", Some("--similar")),
        ("fig3", "--users", "0", Some("--similar")),
        ("churn", "--batch", "0", None),
    ] {
        let mut args = vec![cmd];
        args.extend(small);
        args.extend(extra);
        args.extend([flag, value]);
        let out = run_bounded(&args).unwrap_or_else(|| panic!("{args:?} did not exit"));
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag} must be")), "{args:?}: {err}");
    }
}

#[test]
fn malformed_flags_exit_1_naming_the_flag() {
    for (args, flag) in [
        (&["realorg", "--users", "0"][..], "--users"),
        (&["realorg", "--density", "2"], "--density"),
        (&["fig2", "--min", "x"], "--min"),
        (&["realorg", "--strategy", "nope"], "--strategy"),
        (&["fig2", "--seed"], "--seed"),
        (&["fig2", "--no-such-flag", "1"], "--no-such-flag"),
        (&["cooccur-example", "--threads", "0"], "--threads"),
        (&["cooccur-example", "--threads", "100000"], "--threads"),
    ] {
        let out = run_bounded(args).unwrap_or_else(|| panic!("{args:?} did not exit"));
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}
