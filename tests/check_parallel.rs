//! The `rfstudy check` contract on the simulation pool: the matrix runs
//! on `RF_JOBS` workers but prints in matrix order, so stdout and the
//! exit code do not depend on the worker count; a deadline stops the
//! output at the first unfinished configuration; a malformed `RF_JOBS`
//! is a usage error.

use std::process::{Command, Output};

const CHECK: [&str; 5] = ["check", "--bench", "compress", "--commits", "2000"];

fn check(jobs: &str, extra: &[&str]) -> Output {
    rfstudy(jobs, &[&CHECK[..], extra].concat())
}

fn rfstudy(jobs: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfstudy"))
        .args(args)
        .env("RF_JOBS", jobs)
        .env_remove("RF_COMMITS")
        .env_remove("RF_SANITIZE")
        .output()
        .expect("rfstudy runs")
}

#[test]
fn stdout_and_exit_code_do_not_depend_on_the_worker_count() {
    let one = check("1", &[]);
    let three = check("3", &[]);
    let stdout = String::from_utf8_lossy(&one.stdout);
    assert!(one.status.success(), "stdout:\n{stdout}");
    assert!(stdout.ends_with("check: 8 configurations, 0 failed\n"), "{stdout}");
    assert_eq!(one.status.code(), three.status.code());
    assert_eq!(one.stdout, three.stdout, "RF_JOBS=1 and RF_JOBS=3 stdout differ");
}

#[test]
fn a_deadline_stops_the_output_at_the_first_unfinished_configuration() {
    let full = check("1", &[]);
    let cut = check("2", &["--deadline-secs", "0.000001"]);
    assert_eq!(cut.status.code(), Some(1), "runtime failure, not a usage error");
    let stderr = String::from_utf8_lossy(&cut.stderr);
    assert!(stderr.contains("cancelled"), "names the cancellation: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // Whatever printed is the matrix-order prefix of a full run, and
    // the summary line never prints.
    let full = String::from_utf8_lossy(&full.stdout);
    let cut = String::from_utf8_lossy(&cut.stdout);
    assert!(full.starts_with(cut.as_ref()), "not a prefix:\n{cut}");
    assert!(!cut.contains("check: "), "summary printed after a cancellation:\n{cut}");
}

#[test]
fn malformed_rf_jobs_is_a_usage_error() {
    // `model --check` simulates the same matrix on the same pool.
    let model_check = ["model", "--check", "--bench", "compress", "--commits", "2000"];
    for args in [&CHECK[..], &model_check[..]] {
        for jobs in ["0", "two"] {
            let out = rfstudy(jobs, args);
            assert_eq!(out.status.code(), Some(2), "RF_JOBS={jobs} {args:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("RF_JOBS"));
            assert!(out.stdout.is_empty(), "RF_JOBS={jobs} {args:?} simulated anyway");
        }
    }
}
