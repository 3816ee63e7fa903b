//! Routing stretch and table optimization (extension; the paper's problem
//! 3): the ratio of overlay route latency to direct latency — the P2
//! property of §1 — before and after nearest-neighbor table optimization.

use std::collections::HashMap;

use hyperring_core::{optimize_tables, route, NeighborTable, RouteOutcome};
use hyperring_id::{IdSpace, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::percentile;
use crate::topo_delay::TopologyDelay;
use crate::workload::distinct_ids;

/// Summary statistics of a stretch sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchStats {
    /// Sampled source/target pairs.
    pub pairs: usize,
    /// Mean stretch.
    pub mean: f64,
    /// Median stretch.
    pub median: f64,
    /// 95th-percentile stretch.
    pub p95: f64,
    /// Mean overlay hops.
    pub mean_hops: f64,
}

/// Result of the stretch experiment.
#[derive(Debug, Clone)]
pub struct StretchResult {
    /// Stretch over unoptimized (oracle) tables.
    pub before: StretchStats,
    /// Stretch after each optimization round count tried.
    pub after: Vec<(usize, StretchStats)>,
    /// Entry replacements made by the deepest optimization.
    pub replacements: usize,
}

fn measure<F>(
    space: IdSpace,
    ids: &[NodeId],
    tables: &[NeighborTable],
    latency: &F,
    samples: usize,
    seed: u64,
) -> StretchStats
where
    F: Fn(&NodeId, &NodeId) -> u64,
{
    let by_id: HashMap<NodeId, &NeighborTable> = tables.iter().map(|t| (t.owner(), t)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stretches = Vec::new();
    let mut hops_total = 0usize;
    let _ = space;
    while stretches.len() < samples {
        let s = ids[rng.gen_range(0..ids.len())];
        let t = ids[rng.gen_range(0..ids.len())];
        if s == t {
            continue;
        }
        let direct = latency(&s, &t);
        if direct == 0 {
            continue;
        }
        match route(s, t, |id| by_id.get(id).copied()) {
            RouteOutcome::Delivered { path } => {
                let overlay: u64 = path.windows(2).map(|w| latency(&w[0], &w[1])).sum();
                stretches.push(overlay as f64 / direct as f64);
                hops_total += path.len() - 1;
            }
            dropped => panic!("consistent tables dropped a route: {dropped:?}"),
        }
    }
    // Summed in sorted order, as the recorded results were.
    stretches.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = stretches.len();
    let pct = |p| percentile(&stretches, p).expect("at least one sample");
    StretchStats {
        pairs: n,
        mean: stretches.iter().sum::<f64>() / n as f64,
        median: pct(50.0),
        p95: pct(95.0),
        mean_hops: hops_total as f64 / n as f64,
    }
}

/// Runs the stretch experiment: `n` overlay nodes on a transit-stub
/// topology, `samples` random routes, optimization with each round count
/// in `round_counts`.
///
/// # Panics
///
/// Panics on degenerate parameters or if routing over consistent tables
/// ever drops a message.
pub fn run_stretch(
    b: u16,
    d: usize,
    n: usize,
    samples: usize,
    round_counts: &[usize],
    seed: u64,
) -> StretchResult {
    let space = IdSpace::new(b, d).expect("valid space");
    let ids = distinct_ids(space, n, seed);
    let topo = TopologyDelay::test_scale(n, seed ^ 0x50f7);
    let host_of: HashMap<NodeId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let latency = |a: &NodeId, b_: &NodeId| -> u64 {
        topo.topology()
            .host_latency(topo.hosts(), host_of[a], host_of[b_])
    };

    let tables = hyperring_core::build_consistent_tables(space, &ids);
    let before = measure(space, &ids, &tables, &latency, samples, seed ^ 1);

    let mut after = Vec::new();
    let mut replacements = 0;
    for &rounds in round_counts {
        let mut optimized = tables.clone();
        let report = optimize_tables(&mut optimized, |a, b_| latency(a, b_), rounds);
        replacements = report.replacements;
        after.push((
            rounds,
            measure(space, &ids, &optimized, &latency, samples, seed ^ 1),
        ));
    }
    StretchResult {
        before,
        after,
        replacements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_reduces_stretch() {
        let r = run_stretch(16, 6, 96, 400, &[1, 3], 5);
        assert!(r.before.mean >= 1.0, "stretch below 1 is impossible");
        assert!(r.replacements > 0);
        let after3 = r.after.last().unwrap().1;
        assert!(
            after3.mean < r.before.mean,
            "optimization did not help: {} -> {}",
            r.before.mean,
            after3.mean
        );
        // More rounds never hurt.
        assert!(r.after[1].1.mean <= r.after[0].1.mean + 1e-9);
    }

    #[test]
    fn stats_are_ordered() {
        let r = run_stretch(8, 5, 64, 200, &[1], 9);
        for s in std::iter::once(r.before).chain(r.after.iter().map(|(_, s)| *s)) {
            assert!(s.median <= s.p95 + 1e-9);
            assert!(s.pairs == 200);
            assert!(s.mean_hops >= 1.0);
        }
    }
}
