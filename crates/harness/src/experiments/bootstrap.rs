//! §6.1 network initialization: start from one node, join everyone else
//! through it, end with a consistent network.

use std::path::Path;

use hyperring_core::{bootstrap, JsonlTrace, ProtocolOptions, SimNetworkBuilder};
use hyperring_id::IdSpace;
use hyperring_sim::UniformDelay;

use crate::workload::distinct_ids;

/// How the non-seed nodes join during initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapConfig {
    /// One node at a time, each join completing before the next begins.
    Sequential,
    /// Everyone at once at t = 0, all through the seed node — the
    /// worst-case contention pattern (all joins are dependent on the seed's
    /// early tables).
    Concurrent,
    /// Joins start staggered `gap_us` apart (a mix of overlap patterns).
    Staggered {
        /// Microseconds between consecutive join starts.
        gap_us: u64,
    },
}

/// Result of a bootstrap run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapResult {
    /// Number of nodes initialized (including the seed).
    pub nodes: usize,
    /// Whether the final network passed the consistency checker.
    pub consistent: bool,
    /// Messages delivered (reported as 0 for the sequential path, whose
    /// per-join counts are not comparable to one concurrent run; kept at
    /// 0 so experiment CSVs stay byte-stable across the incremental
    /// bootstrap rewrite).
    pub messages: u64,
    /// Virtual time at quiescence (µs; 0 for sequential).
    pub finished_at: u64,
}

/// Initializes an `n`-node network from a single seed node per §6.1,
/// writing a JSONL protocol trace of the run to `trace` if given
/// (concurrent/staggered modes only; the sequential path runs one
/// isolated join at a time and is not worth tracing).
///
/// # Panics
///
/// Panics if `n == 0`, the space is too small, or the trace file cannot
/// be created.
pub fn run_bootstrap(
    b: u16,
    d: usize,
    n: usize,
    mode: BootstrapConfig,
    seed: u64,
    trace: Option<&Path>,
) -> BootstrapResult {
    let space = IdSpace::new(b, d).expect("valid space");
    let ids = distinct_ids(space, n, seed);
    match mode {
        BootstrapConfig::Sequential => {
            // One live simulator grown join-by-join (O(n) incremental work).
            let net = bootstrap(space, ProtocolOptions::new(), &ids, 1);
            BootstrapResult {
                nodes: n,
                consistent: net.check_consistency().is_consistent(),
                messages: 0,
                finished_at: 0,
            }
        }
        BootstrapConfig::Concurrent | BootstrapConfig::Staggered { .. } => {
            let mut builder = SimNetworkBuilder::new(space);
            builder.options(ProtocolOptions::new());
            if let Some(path) = trace {
                let file = std::fs::File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
                builder.trace(Box::new(JsonlTrace::new(std::io::BufWriter::new(file))));
            }
            builder.add_member(ids[0]);
            for (i, id) in ids[1..].iter().enumerate() {
                let at = match mode {
                    BootstrapConfig::Staggered { gap_us } => i as u64 * gap_us,
                    _ => 0,
                };
                builder.add_joiner(*id, ids[0], at);
            }
            let mut net = builder.build(UniformDelay::new(500, 60_000), seed);
            let report = net.run();
            assert!(!report.truncated, "bootstrap did not quiesce");
            assert!(net.all_in_system(), "bootstrap joiner stuck");
            BootstrapResult {
                nodes: n,
                consistent: net.check_consistency().is_consistent(),
                messages: report.delivered,
                finished_at: report.finished_at,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_bootstrap_consistent() {
        let r = run_bootstrap(4, 4, 16, BootstrapConfig::Sequential, 3, None);
        assert!(r.consistent);
        assert_eq!(r.nodes, 16);
    }

    #[test]
    fn concurrent_bootstrap_consistent() {
        // Everyone piles onto one seed node at t = 0 — the protocol's
        // JoinWait queueing (Q_j) must serialize them safely.
        for seed in [1u64, 2, 3] {
            let r = run_bootstrap(4, 5, 24, BootstrapConfig::Concurrent, seed, None);
            assert!(r.consistent, "seed {seed}");
            assert!(r.messages > 0);
        }
    }

    #[test]
    fn staggered_bootstrap_consistent() {
        let r = run_bootstrap(
            8,
            4,
            20,
            BootstrapConfig::Staggered { gap_us: 10_000 },
            9,
            None,
        );
        assert!(r.consistent);
        assert!(r.finished_at > 0);
    }
}
