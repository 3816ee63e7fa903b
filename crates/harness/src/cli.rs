//! Shared command-line handling for the experiment binaries.
//!
//! Every binary accepts, in addition to its own positional arguments:
//!
//! * `--trials N` — run `N` independent trials (default 1), fanned across
//!   cores, with per-trial seeds from
//!   [`trial_seed`](crate::workload::trial_seed). The printed output does
//!   not depend on the core count: results come back in trial order and
//!   trials share no mutable state;
//! * `--trace PATH` — binaries that support it write a JSONL protocol
//!   trace (one [`ProtocolEvent`](hyperring_core::ProtocolEvent) per line,
//!   stamped with virtual time) of one representative run to `PATH`.
//!   Simulator traces are deterministic under a fixed seed: same inputs,
//!   byte-identical file.

use std::path::PathBuf;

use crate::workload::{fan_out, run_trials};

/// Trial-related options extracted from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOpts {
    /// Number of independent trials to run (≥ 1).
    pub trials: usize,
    /// Where to write a JSONL protocol trace, if requested.
    pub trace: Option<PathBuf>,
    /// The arguments left over after removing trial flags, in order
    /// (excluding the program name).
    pub rest: Vec<String>,
}

impl TrialOpts {
    /// Parses `--trials N` and `--trace PATH` out of an argument list.
    ///
    /// # Panics
    ///
    /// Panics with a usage message if `--trials` is missing its value or
    /// the value is not a positive integer.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut trials = 1usize;
        let mut trace = None;
        let mut rest = Vec::new();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trials" => {
                    let v = args.next().expect("--trials requires a value");
                    trials = v
                        .parse()
                        .expect("--trials value must be a positive integer");
                    assert!(trials >= 1, "--trials value must be a positive integer");
                }
                "--trace" => {
                    let v = args.next().expect("--trace requires a path");
                    trace = Some(PathBuf::from(v));
                }
                _ => rest.push(a),
            }
        }
        TrialOpts {
            trials,
            trace,
            rest,
        }
    }

    /// Parses the process's own arguments (skipping the program name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The `i`-th leftover positional argument parsed as `T`, or
    /// `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with the argument text if parsing fails.
    pub fn positional<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        match self.rest.get(i) {
            Some(s) if !s.starts_with("--") => s
                .parse()
                .unwrap_or_else(|_| panic!("could not parse argument {s:?}")),
            _ => default,
        }
    }

    /// Whether a leftover flag (e.g. `--small`) is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// The value of a leftover `--flag VALUE` pair (e.g. `--n 64`) parsed
    /// as `T`, or `default` when the flag is absent.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present without a value, or the value does
    /// not parse.
    pub fn named<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.rest.iter().position(|a| a == flag) {
            None => default,
            Some(i) => {
                let v = self
                    .rest
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} requires a value"));
                v.parse()
                    .unwrap_or_else(|_| panic!("could not parse {flag} value {v:?}"))
            }
        }
    }

    /// Runs `self.trials` trials of `f` with per-trial seeds derived from
    /// `base_seed`, fanned across cores, returning results in trial order.
    pub fn run<R, F>(&self, base_seed: u64, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64) -> R + Sync,
    {
        run_trials(self.trials, base_seed, f)
    }

    /// Maps `f` over `0..count`, fanned across cores, returning results in
    /// index order.
    ///
    /// For binaries whose repetition knob predates `--trials` (e.g. a
    /// `[seeds]` positional) and therefore derive per-run seeds themselves
    /// rather than through [`trial_seed`](crate::workload::trial_seed).
    pub fn map_indexed<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        fan_out(count, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> TrialOpts {
        TrialOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flag_extraction() {
        let o = parse(&[]);
        assert_eq!(o.trials, 1);
        assert!(o.trace.is_none());
        assert!(o.rest.is_empty());

        let o = parse(&["5000", "--trials", "8", "--trace", "out.jsonl", "--small"]);
        assert_eq!(o.trials, 8);
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("out.jsonl")));
        assert_eq!(o.rest, vec!["5000".to_string(), "--small".to_string()]);
        assert_eq!(o.positional(0, 0u64), 5000);
        assert!(o.has_flag("--small"));
    }

    #[test]
    fn named_flags_parse_with_defaults() {
        let o = parse(&["--n", "64", "--trials", "2"]);
        assert_eq!(o.named("--n", 16usize), 64);
        assert_eq!(o.named("--seed", 7u64), 7);
        assert_eq!(o.trials, 2);
    }

    #[test]
    fn positional_falls_back_to_default() {
        let o = parse(&["--trials", "2"]);
        assert_eq!(o.positional::<usize>(0, 48), 48);
    }

    #[test]
    #[should_panic(expected = "--trials value must be a positive integer")]
    fn zero_trials_rejected() {
        parse(&["--trials", "0"]);
    }
}
