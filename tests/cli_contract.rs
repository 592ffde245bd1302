//! The command-line contract of every binary, driven by the option
//! tables themselves: each subcommand `rfstudy help` lists, the `all`
//! suite runner and one harness binary must reject an unknown option, a
//! duplicated option and an option missing its value with exit 2 and a
//! message naming the token, and must answer `--help` with exit 0 and
//! their usage while running nothing. Named rows pin each defect the
//! strict parser closed.
//!
//! `all` and `fig3` are found next to the `rfstudy` binary; a workspace
//! build (plain `cargo test` at the root) puts them there.

use std::ffi::OsStr;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Outcome {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    /// Whether the run created `results/` in its scratch directory.
    wrote_results: bool,
}

fn rfstudy() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_rfstudy"))
}

fn sibling(name: &str) -> PathBuf {
    let path = rfstudy().with_file_name(name);
    assert!(path.exists(), "{} is missing: build the whole workspace first", path.display());
    path
}

/// Runs `bin args` with `env` in a fresh scratch directory.
fn run<S: AsRef<OsStr>>(bin: &Path, args: &[S], env: &[(&str, &str)]) -> Outcome {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rf-cli-contract-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        // Keep an accidental run (the defect under test) small.
        .env("RF_COMMITS", "100")
        .envs(env.iter().copied())
        .output()
        .expect("binary runs");
    let wrote_results = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        wrote_results,
    }
}

/// The subcommands `rfstudy help` lists, in its order.
fn subcommands() -> Vec<String> {
    let help = run(&rfstudy(), &["help"], &[]);
    assert_eq!(help.code, Some(0));
    let subs: Vec<String> = help
        .stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  rfstudy "))
        .map(|rest| rest.split_whitespace().next().unwrap_or_default().to_owned())
        .filter(|sub| sub != "help")
        .collect();
    assert_eq!(subs.len(), 14, "{}", help.stdout);
    subs
}

/// Value-taking options of a usage text: lines in its option sections
/// (after the first `heading:` line, so never the prose) whose second
/// word is a metavar (upper case) or a `a|b` choice list.
fn value_options(usage: &str) -> Vec<String> {
    usage
        .lines()
        .skip_while(|l| l.starts_with(' ') || !l.ends_with(':'))
        .filter_map(|l| {
            let mut words = l.strip_prefix("  --")?.split_whitespace();
            let name = words.next()?;
            let meta = words.next()?;
            let takes_value = meta.contains('|') || meta.chars().all(|c| c.is_ascii_uppercase());
            takes_value.then(|| format!("--{name}"))
        })
        .collect()
}

fn assert_usage_error<S: AsRef<OsStr> + Debug>(
    bin: &Path,
    args: &[S],
    env: &[(&str, &str)],
    needle: &str,
) {
    let out = run(bin, args, env);
    assert_eq!(out.code, Some(2), "{} {args:?} {env:?}: {}", bin.display(), out.stderr);
    assert!(out.stderr.contains(needle), "{args:?} must name {needle:?}: {}", out.stderr);
    assert!(!out.wrote_results, "{args:?} ran something");
}

/// `--help` exits 0 with the usage and runs nothing; unknown,
/// duplicated and value-less options exit 2 naming the token.
fn check_contract(bin: &Path, prefix: &[&str], usage_head: &str) {
    let with = |extra: &[&str]| -> Vec<String> {
        prefix.iter().chain(extra).map(|s| (*s).to_owned()).collect()
    };
    for help in ["--help", "-h"] {
        let args = with(&[help]);
        let out = run(bin, &args, &[]);
        assert_eq!(out.code, Some(0), "{args:?}: {}", out.stderr);
        assert!(out.stdout.starts_with(usage_head), "{args:?}: {}", out.stdout);
        assert!(!out.wrote_results, "{args:?} ran something");
    }
    assert_usage_error(bin, &with(&["--bogus-flag"]), &[], "\"--bogus-flag\"");
    for opt in value_options(&run(bin, &with(&["--help"]), &[]).stdout) {
        let missing = format!("{opt} requires a value");
        assert_usage_error(bin, &with(&[&opt]), &[], &missing);
        let duplicate = format!("duplicate option {opt}");
        assert_usage_error(bin, &with(&[&opt, "x", &opt, "x"]), &[], &duplicate);
    }
}

#[test]
fn every_rfstudy_subcommand_keeps_the_contract() {
    for sub in subcommands() {
        check_contract(&rfstudy(), &[&sub], &format!("usage: rfstudy {sub}"));
    }
}

#[test]
fn the_suite_runner_and_a_harness_keep_the_contract() {
    check_contract(&sibling("all"), &[], "usage: all");
    check_contract(&sibling("fig3"), &[], "usage: fig3");
    assert_usage_error(&sibling("fig3"), &["10", "20"], &[], "unexpected argument \"20\"");
}

#[test]
fn each_closed_defect_is_a_usage_error() {
    let rf = rfstudy();
    let rows: &[(&[&str], &str)] = &[
        // Unknown flags used to run anyway.
        (&["check", "--bogus-flag"], "--bogus-flag"),
        (&["model", "--bogus"], "--bogus"),
        (&["list", "--anything"], "--anything"),
        (&["timing", "--regs", "4"], "--regs"),
        // A typo used to disable the gate.
        (&["report", "--check", "--max-regres-pct", "5"], "--max-regres-pct"),
        // A missing value used to become the default.
        (&["run", "--bench", "ora", "--commits"], "--commits requires a value"),
        (&["check", "--commits", "100", "--seed"], "--seed requires a value"),
        (&["store", "stats", "--dir"], "--dir requires a value"),
        // A duplicate used to be ignored.
        (&["run", "--bench", "ora", "--commits", "100", "--bench", "compress"], "--bench"),
        // Out-of-range values used to panic.
        (&["run", "--bench", "ora", "--commits", "100", "--width", "0"], "--width \"0\""),
        (&["run", "--bench", "ora", "--commits", "100", "--regs", "10"], "--regs \"10\""),
        (&["run", "--bench", "ora", "--commits", "100", "--dq", "0"], "--dq \"0\""),
        (&["check", "--bench", "ora", "--regs", "10"], "--regs \"10\""),
        (&["model", "--bench", "ora", "--width", "0"], "--width \"0\""),
        (&["timing", "--width", "0"], "--width \"0\""),
        (&["dataflow", "--bench", "ora", "--count", "100", "--window", "0"], "--window \"0\""),
        // An unknown benchmark used to be a runtime failure (exit 1).
        (&["run", "--bench", "nope"], "--bench \"nope\""),
        (&["trace", "--bench", "nope"], "--bench \"nope\""),
        (&["record", "--bench", "nope", "--out", "t.rft"], "--bench \"nope\""),
        (&["dataflow", "--bench", "nope"], "--bench \"nope\""),
        (&["check", "--bench", "nope"], "--bench \"nope\""),
        (&["model", "--bench", "nope"], "--bench \"nope\""),
        (&["profile", "--bench", "nope"], "--bench \"nope\""),
    ];
    for (args, needle) in rows {
        assert_usage_error(&rf, args, &[], needle);
    }
    // `--help` used to run the command (`check`, `profile`) or fail
    // (`run`); it prints the usage and runs nothing.
    for sub in ["check", "profile", "run"] {
        let out = run(&rf, &[sub, "--help"], &[]);
        assert_eq!(out.code, Some(0), "{sub} --help: {}", out.stderr);
        assert!(out.stdout.starts_with(&format!("usage: rfstudy {sub}")), "{}", out.stdout);
        assert!(!out.stdout.contains("configurations"), "{sub} --help ran: {}", out.stdout);
    }
    // A misspelled RF_LOG used to silence the progress lines.
    for bin in [sibling("all"), sibling("fig3")] {
        assert_usage_error::<&str>(&bin, &[], &[("RF_LOG", "jsn")], "RF_LOG");
    }
}
