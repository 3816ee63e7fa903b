//! `hyperring-cli` rejects an out-of-range `--n`, a malformed value and
//! an argument its command does not take with an error and exit code 1
//! instead of panicking or running the defaults, and still runs
//! in-range commands. Commands run in a scratch directory, so the
//! `results/` they write stays out of the source tree.

use std::process::{Command, Output, Stdio};

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

/// In-range commands exit 0 and print what they ran.
#[test]
fn smallest_bootstrap_runs() {
    for (args, prints) in [
        (&["bootstrap", "--n", "2"][..], "consistent"),
        // The CLI's one way into a timeline's keyed storm.
        (
            &["simulate", "--n", "32", "--m", "8", "--lookups", "64"],
            "lookup storm",
        ),
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(prints), "{args:?}: {stdout}");
    }
}

#[test]
fn bad_or_unread_arguments_are_errors_before_any_work() {
    for args in [
        // The flag is `--half-lives`.
        &["churn", "poisson", "--half-life", "40"][..],
        &["churn", "bogus"],
        &["churn", "poisson", "--runtime", "lockstep"],
        &["fig15b", "--trials", "0"],
        &["theorem4", "abc"],
        &["scale", "--batch", "x"],
        // Figure 15(a) is analytic: it takes no trials.
        &["fig15a", "--trials", "2"],
        // Bases run from 2 to 16.
        &["simulate", "--b", "32"],
        &["route", "--b", "17"],
        &["bootstrap", "--b", "36"],
        &["analyze", "--b", "32"],
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
        if args[1] == "--b" {
            let want = format!("error: base {} is not in 2..=16", args[2]);
            assert!(stderr.contains(&want), "{args:?}: {stderr}");
        }
    }
}

/// A reader that stops reading (`hyperring-cli analyze | head -1`) ends
/// the command quietly: exit 0, no panic on stderr.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    for args in [&["analyze"][..], &["help"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hyperring-cli"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run hyperring-cli");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for hyperring-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
