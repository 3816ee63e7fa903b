//! The one argument parser every command uses.
//!
//! A command line is its leading positionals, then `--flag value` pairs
//! and bare `--switch`es in any order. A command reads what it takes,
//! then calls [`Args::finish`], which rejects every word it never read;
//! so a misspelt flag fails before any work starts instead of running
//! the defaults. A value never starts with `--`.

use std::fmt::Display;
use std::str::FromStr;

/// One command's arguments (the words after the command name).
#[derive(Debug)]
pub struct Args {
    words: Vec<String>,
    read: Vec<bool>,
    /// How many leading words are positionals: those before the first
    /// `--` word.
    leading: usize,
}

fn parse<T: FromStr>(what: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e| format!("{what} {v:?}: {e}"))
}

/// Parses a comma-separated list, each item trimmed.
pub fn list<T: FromStr>(what: &str, v: &str) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    v.split(',').map(|s| parse(what, s.trim())).collect()
}

impl Args {
    /// Wraps the words after the command name.
    pub fn new(words: Vec<String>) -> Args {
        let leading = words
            .iter()
            .position(|w| w.starts_with("--"))
            .unwrap_or(words.len());
        Args {
            read: vec![false; words.len()],
            words,
            leading,
        }
    }

    /// The `i`-th positional parsed as `T`, or `default` when absent.
    pub fn positional<T: FromStr>(&mut self, i: usize, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        if i >= self.leading {
            return Ok(default);
        }
        self.read[i] = true;
        parse(&format!("argument {}", i + 1), &self.words[i])
    }

    /// The index of the unread flag word `name`, marked read.
    fn take(&mut self, name: &str) -> Option<usize> {
        let i =
            (self.leading..self.words.len()).find(|&i| !self.read[i] && self.words[i] == name)?;
        self.read[i] = true;
        Some(i)
    }

    /// Whether the bare switch `name` (e.g. `--smoke`) is present.
    pub fn switch(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of `name VALUE` parsed as `T`, if the flag is present.
    pub fn get<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let Some(i) = self.take(name) else {
            return Ok(None);
        };
        match self.words.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.read[i + 1] = true;
                parse(name, v).map(Some)
            }
            _ => Err(format!("{name} needs a value")),
        }
    }

    /// The value of `name VALUE` parsed as `T`, or `default` when absent.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// `--n`, checked against `1..=max`: a network of distinct ids is
    /// never empty and never holds more ids than its space has to give
    /// (`None`: a space too large to count).
    pub fn nodes(&mut self, default: usize, max: Option<u128>) -> Result<usize, String> {
        let n: usize = self.value("--n", default)?;
        match max {
            _ if n == 0 => Err("--n must be at least 1".into()),
            Some(max) if n as u128 > max => Err(format!("--n {n} exceeds the {max} ids available")),
            _ => Ok(n),
        }
    }

    /// `--trials N`: how many independent trials to run (default 1,
    /// at least 1), fanned across cores with per-trial seeds from
    /// [`trial_seed`](hyperring::harness::trial_seed).
    pub fn trials(&mut self) -> Result<usize, String> {
        match self.value("--trials", 1)? {
            0 => Err("--trials must be at least 1".into()),
            n => Ok(n),
        }
    }

    /// Fails on the first word no read took.
    pub fn finish(&self) -> Result<(), String> {
        match self.words.iter().zip(&self.read).find(|(_, &read)| !read) {
            Some((w, _)) => Err(format!("unexpected argument {w:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(words: &[&str]) -> Args {
        Args::new(words.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn defaults_and_flag_extraction() {
        let mut a = args(&[]);
        assert_eq!(a.trials(), Ok(1));
        assert_eq!(a.get::<PathBuf>("--trace"), Ok(None));
        assert!(a.finish().is_ok());

        let mut a = args(&["5000", "--trials", "8", "--trace", "out.jsonl", "--small"]);
        assert_eq!(a.trials(), Ok(8));
        assert_eq!(a.get("--trace"), Ok(Some(PathBuf::from("out.jsonl"))));
        assert_eq!(a.positional(0, 0u64), Ok(5000));
        assert!(a.switch("--small"));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn named_flags_parse_with_defaults() {
        let mut a = args(&["--n", "64", "--trials", "2"]);
        assert_eq!(a.value("--n", 16usize), Ok(64));
        assert_eq!(a.value("--seed", 7u64), Ok(7));
        assert_eq!(a.trials(), Ok(2));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn positional_falls_back_to_default() {
        let mut a = args(&["--trials", "2"]);
        assert_eq!(a.positional::<usize>(0, 48), Ok(48));
    }

    #[test]
    fn zero_trials_rejected() {
        assert!(args(&["--trials", "0"]).trials().is_err());
    }
}
