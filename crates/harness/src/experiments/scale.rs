//! Large-`n` scaling of the arena-backed simulation core: batched
//! concurrent bootstrap throughput, peak memory, and a Definition-3.8
//! verification phase that borrows the engines' tables in place, with its
//! own wall-clock and peak-RSS attribution.

use std::time::Instant;

use hyperring_core::{
    bootstrap_batched_net, check_reachability_sampled, digest_and_check_streaming,
    tables_digest_iter, NeighborTable, ProtocolOptions,
};
use hyperring_id::IdSpace;

use crate::metrics::{cores, current_rss_bytes, peak_rss_bytes, reset_peak_rss};
use crate::workload::distinct_ids;

/// Configuration of one scaling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Identifier-space base.
    pub b: u16,
    /// Identifier-space digit count.
    pub d: usize,
    /// Total nodes (seed + joiners).
    pub n: usize,
    /// Joiners injected per concurrent wave.
    pub batch: usize,
    /// Workload seed for the id draw.
    pub seed: u64,
    /// Whether to run the streaming consistency checker on the result.
    pub check: bool,
    /// Seeded random routing pairs for the sampled Lemma-3.1 reachability
    /// check (0 disables; the all-pairs check is quadratic and unusable
    /// past a few thousand nodes).
    pub sample_pairs: usize,
}

impl ScaleConfig {
    /// A b=16, d=8 run of `n` nodes in waves of `batch`.
    pub fn new(n: usize, batch: usize) -> Self {
        ScaleConfig {
            b: 16,
            d: 8,
            n,
            batch,
            seed: 13,
            check: true,
            sample_pairs: 256,
        }
    }
}

/// Result of one scaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleResult {
    /// Nodes bootstrapped.
    pub nodes: usize,
    /// Wall-clock duration of the bootstrap (seconds).
    pub wall_secs: f64,
    /// Bootstrap throughput in nodes per wall-clock second.
    pub nodes_per_sec: f64,
    /// Peak resident set size over the bootstrap phase (bytes; 0 off
    /// Linux). The watermark is reset at run start, so when several runs
    /// share a process each row reports its own bootstrap peak (plus
    /// whatever baseline the process retains).
    pub peak_rss_bytes: u64,
    /// Peak-RSS *delta* attributed to the digest+check phase: high-water
    /// mark after the check minus current RSS before it, after a
    /// watermark reset. 0 when the kernel refuses the reset (non-Linux)
    /// or when checking is disabled.
    pub check_rss_delta_bytes: u64,
    /// Wall-clock duration of the digest+check phase (seconds).
    pub check_wall_secs: f64,
    /// Cores available to the process.
    pub cores: usize,
    /// FNV-1a digest of the final tables ([`tables_digest_iter`]).
    pub digest: u64,
    /// Whether the consistency checker passed (`true` when skipped).
    pub consistent: bool,
    /// Sampled routing pairs attempted (0 when sampling is disabled).
    pub sampled_pairs: usize,
    /// Sampled source→target routes that failed (Lemma 3.1 says 0 for a
    /// consistent network).
    pub unreachable_sampled: usize,
}

/// Bootstraps `cfg.n` nodes in concurrent waves, then digests and
/// Definition-3.8-checks the result **in place** over the engines'
/// arena-backed tables (one combined traversal, no `Vec<NeighborTable>`
/// clone), spot-checks Lemma-3.1 reachability on seeded sampled pairs,
/// and measures throughput plus phase-attributed peak memory.
///
/// # Panics
///
/// Panics if the space is invalid, a wave fails to quiesce, or the
/// consistency check fails a structural precondition.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleResult {
    let space = IdSpace::new(cfg.b, cfg.d).expect("valid space");
    let ids = distinct_ids(space, cfg.n, cfg.seed);
    let opts = ProtocolOptions::new();

    // Scope the bootstrap peak to this run, not the process lifetime.
    reset_peak_rss();
    let start = Instant::now();
    let net = bootstrap_batched_net(space, opts, &ids, cfg.batch);
    let wall_secs = start.elapsed().as_secs_f64();
    let boot_peak = peak_rss_bytes().unwrap_or(0);

    // Digest + check phase, streamed off the live engines. Reset the
    // watermark so its peak is attributable to the check alone.
    let reset_ok = reset_peak_rss();
    let rss_before = current_rss_bytes().unwrap_or(0);
    let check_start = Instant::now();
    let (digest, consistent) = if cfg.check {
        let (digest, report) = digest_and_check_streaming(space, net.tables_iter());
        (digest, report.is_consistent())
    } else {
        (tables_digest_iter(net.tables_iter()), true)
    };
    let check_wall_secs = check_start.elapsed().as_secs_f64();
    let check_rss_delta_bytes = if reset_ok {
        peak_rss_bytes().unwrap_or(0).saturating_sub(rss_before)
    } else {
        0
    };

    let (sampled_pairs, unreachable_sampled) = if cfg.sample_pairs > 0 {
        let refs: Vec<&NeighborTable> = net.tables_iter().collect();
        let failures = check_reachability_sampled(&refs, cfg.sample_pairs, cfg.seed ^ 0x5eed);
        (cfg.sample_pairs, failures.len())
    } else {
        (0, 0)
    };

    ScaleResult {
        nodes: cfg.n,
        wall_secs,
        nodes_per_sec: cfg.n as f64 / wall_secs.max(f64::MIN_POSITIVE),
        peak_rss_bytes: boot_peak,
        check_rss_delta_bytes,
        check_wall_secs,
        cores: cores(),
        digest,
        consistent,
        sampled_pairs,
        unreachable_sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_is_consistent_and_stable() {
        let cfg = ScaleConfig::new(48, 16);
        let r = run_scale(&cfg);
        assert_eq!(r.nodes, 48);
        assert!(r.consistent);
        assert_eq!(run_scale(&cfg).digest, r.digest);
        assert!(r.nodes_per_sec > 0.0);
        assert_eq!(r.sampled_pairs, 256);
        assert_eq!(r.unreachable_sampled, 0, "consistent ⇒ reachable");
    }

    #[test]
    #[ignore = "minutes-scale run; the ≥262144 row of the EXPERIMENTS.md scaling sweep"]
    fn scale_n262144_streaming_check_completes() {
        let mut cfg = ScaleConfig::new(262_144, 4096);
        cfg.sample_pairs = 64;
        let r = run_scale(&cfg);
        assert!(r.consistent);
        assert_eq!(r.unreachable_sampled, 0);
        assert!(r.nodes_per_sec > 0.0);
    }

    #[test]
    #[ignore = "hour-scale run; the million-node smoke the streaming checker exists for"]
    fn scale_n1048576_smoke() {
        let mut cfg = ScaleConfig::new(1_048_576, 8192);
        cfg.sample_pairs = 32;
        let r = run_scale(&cfg);
        assert!(r.consistent);
        assert_eq!(r.unreachable_sampled, 0);
    }

    #[test]
    fn skipped_check_digests_the_same_tables_and_reports_consistent() {
        let mut cfg = ScaleConfig::new(40, 8);
        let checked = run_scale(&cfg);
        cfg.check = false;
        let skipped = run_scale(&cfg);
        assert_eq!(skipped.digest, checked.digest);
        assert!(skipped.consistent, "skipped check reports consistent");
    }
}
