//! `hyperring-cli` rejects an out-of-range `--n` with an error and exit
//! code 1 instead of panicking, and still runs an in-range one.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperring-cli"))
        .args(args)
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
