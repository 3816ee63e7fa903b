//! Concurrent joins over a lossy network: drops and duplicates injected
//! by a seeded [`FaultyDelay`], recovery driven by the engine's
//! [`RetryPolicy`] timers. The paper assumes reliable delivery (§2); this
//! experiment measures what the timeout/retransmission layer costs to
//! restore that assumption and verifies Definition 3.8 still holds at the
//! end.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use hyperring_core::{JsonlTrace, ProtocolOptions, RetryPolicy, SimNetworkBuilder};
use hyperring_id::IdSpace;
use hyperring_sim::{FaultyDelay, UniformDelay};

use crate::workload::distinct_ids;

/// Shape of a fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultsConfig {
    /// Identifier base `b`.
    pub base: u16,
    /// Identifier length `d`.
    pub digits: usize,
    /// Size of the initial consistent network `V`.
    pub members: usize,
    /// Number of concurrent joiners (all start at t = 0).
    pub joiners: usize,
    /// Probability that any message is dropped.
    pub drop_p: f64,
    /// Probability that a delivered message is duplicated.
    pub dup_p: f64,
    /// Timeout/retry policy handed to every engine.
    pub retry: RetryPolicy,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            base: 4,
            digits: 6,
            members: 16,
            joiners: 48,
            drop_p: 0.10,
            dup_p: 0.02,
            retry: RetryPolicy {
                timeout_us: 300_000,
                max_retries: 30,
                ..RetryPolicy::default()
            },
        }
    }
}

/// Outcome of one fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultsResult {
    /// Messages actually delivered.
    pub delivered: u64,
    /// Messages dropped by the fault injector.
    pub dropped: u64,
    /// Extra copies delivered by the fault injector.
    pub duplicated: u64,
    /// Retry timers that fired.
    pub timers_fired: u64,
    /// Protocol events recorded to the trace sink (0 when not tracing).
    pub traced: u64,
    /// Virtual time at quiescence (µs).
    pub finished_at: u64,
    /// Whether every joiner reached `in_system`.
    pub all_in_system: bool,
    /// Whether the final tables satisfy Definition 3.8.
    pub consistent: bool,
}

/// Runs one seeded fault-injection trial. With `trace`, a JSONL protocol
/// trace of the run is written to that path (deterministic for a fixed
/// seed: virtual time, not the wall clock, stamps every record).
///
/// # Panics
///
/// Panics if the trace file cannot be created or the run fails to
/// quiesce.
pub fn run_faults(cfg: &FaultsConfig, seed: u64, trace: Option<&Path>) -> FaultsResult {
    let space = IdSpace::new(cfg.base, cfg.digits).expect("valid space");
    let ids = distinct_ids(space, cfg.members + cfg.joiners, seed);
    let (v, w) = ids.split_at(cfg.members);
    let mut b = SimNetworkBuilder::new(space);
    for id in v {
        b.add_member(*id);
    }
    for id in w {
        b.add_joiner(*id, v[0], 0);
    }
    b.options(ProtocolOptions::new().with_retry(cfg.retry));
    if let Some(path) = trace {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
        b.trace(Box::new(JsonlTrace::new(BufWriter::new(file))));
    }
    let delay = FaultyDelay::new(UniformDelay::new(1_000, 50_000), cfg.drop_p, cfg.dup_p);
    let mut net = b.build(delay, seed);
    let report = net.run();
    assert!(!report.truncated, "fault run did not quiesce");
    FaultsResult {
        delivered: report.delivered,
        dropped: report.dropped,
        duplicated: report.duplicated,
        timers_fired: report.timers_fired,
        traced: report.traced,
        finished_at: report.finished_at,
        all_in_system: net.all_in_system(),
        consistent: net.check_consistency().is_consistent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_recovers() {
        let cfg = FaultsConfig {
            members: 8,
            joiners: 12,
            ..FaultsConfig::default()
        };
        let r = run_faults(&cfg, 7, None);
        assert!(r.all_in_system);
        assert!(r.consistent);
        assert!(r.dropped > 0);
        assert!(r.timers_fired > 0);
        assert_eq!(r.traced, 0);
    }

    #[test]
    fn traced_run_writes_deterministic_jsonl() {
        let cfg = FaultsConfig {
            members: 6,
            joiners: 6,
            ..FaultsConfig::default()
        };
        let dir = std::env::temp_dir();
        let p1 = dir.join("hyperring_faults_trace_1.jsonl");
        let p2 = dir.join("hyperring_faults_trace_2.jsonl");
        let r1 = run_faults(&cfg, 3, Some(&p1));
        let r2 = run_faults(&cfg, 3, Some(&p2));
        assert!(r1.traced > 0);
        assert_eq!(r1, r2);
        let t1 = std::fs::read_to_string(&p1).unwrap();
        let t2 = std::fs::read_to_string(&p2).unwrap();
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "same seed must give a byte-identical trace");
        assert_eq!(t1.lines().count() as u64, r1.traced);
        assert!(t1.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }
}
