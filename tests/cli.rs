//! `hyperring-cli` rejects an out-of-range `--n`, a malformed value and
//! an argument its command does not take with an error and exit code 1
//! instead of panicking or running the defaults, and still runs an
//! in-range command. Commands run in a scratch directory, so the
//! `results/` they write stays out of the source tree.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperring-cli"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run hyperring-cli")
}

#[test]
fn out_of_range_n_is_an_error_not_a_panic() {
    for args in [
        &["bootstrap", "--n", "0"][..],
        &["simulate", "--n", "0"],
        &["route", "--n", "0"],
        &["analyze", "--n", "0"],
        // 2^4 = 16 ids in the space.
        &["bootstrap", "--b", "2", "--d", "4", "--n", "17"],
        &["route", "--b", "2", "--d", "4", "--n", "17"],
        &["simulate", "--b", "2", "--d", "4", "--n", "12", "--m", "5"],
        &["analyze", "--b", "2", "--d", "4", "--n", "16"],
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error: --n"), "{args:?}: {stderr}");
    }
}

#[test]
fn smallest_bootstrap_runs() {
    let out = cli(&["bootstrap", "--n", "2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_or_unread_arguments_are_errors_before_any_work() {
    for args in [
        // The flag is `--half-lives`.
        &["churn", "poisson", "--half-life", "40"][..],
        &["churn", "bogus"],
        &["fig15b", "--trials", "0"],
        &["theorem4", "abc"],
        &["scale", "--batch", "x"],
        // Figure 15(a) is analytic: it takes no trials.
        &["fig15a", "--trials", "2"],
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
    }
}
