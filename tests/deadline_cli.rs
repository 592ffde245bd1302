//! CLI contract for `--deadline-secs` on the batch subcommands that
//! gained it alongside `rfstudy check`: `model --check` and `profile`.
//! A generous budget changes nothing; an impossible one fails with exit
//! code 1 and a deadline message; a malformed value is a usage error
//! (exit code 2) before any simulation starts. The same usage-error
//! contract covers the `RF_*` knobs these subcommands read.

use std::process::{Command, Output};

/// A single cheap configuration so even the "generous deadline" runs
/// stay fast.
const PINS: [&str; 10] = [
    "--bench",
    "compress",
    "--width",
    "4",
    "--exceptions",
    "precise",
    "--regs",
    "64",
    "--commits",
    "2000",
];

fn rfstudy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfstudy"))
        .args(args)
        .env_remove("RF_JOBS")
        .output()
        .expect("rfstudy runs")
}

fn args_with(base: &[&str], deadline: &str) -> Vec<&'static str> {
    // Leaked so the slices can share a lifetime; test-only.
    let mut v: Vec<&'static str> = Vec::new();
    for a in base {
        v.push(Box::leak(a.to_string().into_boxed_str()));
    }
    v.extend(PINS);
    v.push("--deadline-secs");
    v.push(Box::leak(deadline.to_string().into_boxed_str()));
    v
}

#[test]
fn model_check_honors_a_generous_deadline() {
    let out = rfstudy(&args_with(&["model", "--check"], "120"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("model check: 1 configurations"), "{stdout}");
}

#[test]
fn model_check_fails_cleanly_when_the_deadline_is_impossible() {
    let out = rfstudy(&args_with(&["model", "--check"], "0.000001"));
    assert_eq!(out.status.code(), Some(1), "runtime failure, not a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "names the deadline: {stderr}");
}

#[test]
fn profile_honors_a_generous_deadline() {
    let out = rfstudy(&args_with(&["profile"], "120"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("attributed"), "profile table rendered: {stdout}");
}

#[test]
fn profile_fails_cleanly_when_the_deadline_is_impossible() {
    let out = rfstudy(&args_with(&["profile"], "0.000001"));
    assert_eq!(out.status.code(), Some(1), "runtime failure, not a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "names the deadline: {stderr}");
}

#[test]
fn malformed_deadlines_are_usage_errors_before_anything_runs() {
    for sub in [&["model", "--check"][..], &["profile"][..]] {
        for bad in ["0", "-1", "abc", "inf"] {
            let out = rfstudy(&args_with(sub, bad));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{sub:?} --deadline-secs {bad} must be a usage error"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--deadline-secs"), "{stderr}");
        }
    }
}

#[test]
fn malformed_env_knobs_are_usage_errors_and_off_means_off() {
    let with_env = |var: &str, value: &str, args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rfstudy"))
            .args(args)
            .env_remove("RF_JOBS")
            .env_remove("RF_COMMITS")
            .env_remove("RF_SANITIZE")
            .env(var, value)
            .output()
            .expect("rfstudy runs")
    };
    // A malformed RF_COMMITS used to run `check` at the 10000 default.
    let check = ["check", "--bench", "compress", "--width", "4", "--regs", "64"];
    let out = with_env("RF_COMMITS", "20k", &check);
    assert_eq!(out.status.code(), Some(2), "RF_COMMITS=20k must be a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("RF_COMMITS"));

    // RF_SANITIZE=off used to turn the sanitizer on.
    let run = ["run", "--bench", "compress", "--commits", "2000"];
    // An empty value is unset, as it was before the strict parser.
    for (value, sanitized) in
        [("off", false), ("0", false), ("", false), ("1", true), ("yes", true)]
    {
        let out = with_env("RF_SANITIZE", value, &run);
        assert!(out.status.success(), "RF_SANITIZE={value} runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout.contains("sanitizer: clean"),
            sanitized,
            "RF_SANITIZE={value}:\n{stdout}"
        );
    }
    for args in [&run[..], &["replay", "--trace", "missing.trace"][..]] {
        let out = with_env("RF_SANITIZE", "maybe", args);
        assert_eq!(out.status.code(), Some(2), "{args:?} with RF_SANITIZE=maybe");
        assert!(String::from_utf8_lossy(&out.stderr).contains("RF_SANITIZE"));
    }
}
