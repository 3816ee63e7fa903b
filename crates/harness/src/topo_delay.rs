//! Adapter: router-topology latencies as a simulator delay model.
//!
//! [`TopologyDelay`] puts one generated topology behind an [`Arc`],
//! cloneable in `O(1)`, with per-source latency rows memoized into a
//! lazily-filled host-to-host matrix. Rows are computed once, on first
//! use, and every clone sees them.
//!
//! Topology generation is the expensive part (Waxman wiring plus one
//! Dijkstra per transit router plus per-stub-domain APSP — seconds at the
//! paper's 8320-router scale), so multi-trial experiments generate one
//! [`TopologyDelay`] and hand each trial a clone instead of regenerating
//! per trial.

use std::sync::{Arc, OnceLock};

use hyperring_sim::{DelayModel, Time};
use hyperring_topology::{HostMap, TransitStub, TransitStubConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A [`DelayModel`] backed by a transit-stub router topology: actor `i` of
/// the simulation is host `i` of the [`HostMap`], and each message takes
/// the exact shortest-path latency between the two hosts (clamped to
/// ≥ 1 µs).
///
/// This reproduces the paper's simulation setup: a GT-ITM topology with
/// 8320 routers and one end-host per overlay node. A clone shares the
/// topology and the memoized latency rows, so a `delay` call is an index
/// into a shared row (or, once per source host, an `O(hosts)` row fill).
#[derive(Debug, Clone)]
pub struct TopologyDelay {
    inner: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    ts: TransitStub,
    hosts: HostMap,
    /// Memoized host-to-host latency rows, filled on first use. Row `i`
    /// holds the (already `max(1)`-clamped) latency from host `i` to every
    /// host.
    rows: Vec<OnceLock<Vec<Time>>>,
}

impl TopologyDelay {
    /// Generates a topology from `cfg` and attaches `hosts` end-hosts, all
    /// derived deterministically from `seed`.
    pub fn generate(cfg: &TransitStubConfig, hosts: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ts = TransitStub::generate(cfg, &mut rng);
        let hosts = HostMap::attach(&ts, hosts, &mut rng);
        let rows = std::iter::repeat_with(OnceLock::new)
            .take(hosts.len())
            .collect();
        TopologyDelay {
            inner: Arc::new(Shared { ts, hosts, rows }),
        }
    }

    /// The paper's full-scale setup: 8320 routers, `hosts` end-hosts.
    pub fn paper_scale(hosts: usize, seed: u64) -> Self {
        Self::generate(&TransitStubConfig::paper_8320(), hosts, seed)
    }

    /// A small topology for tests (72 routers).
    pub fn test_scale(hosts: usize, seed: u64) -> Self {
        Self::generate(&TransitStubConfig::small(), hosts, seed)
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.inner.hosts.len()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &TransitStub {
        &self.inner.ts
    }

    /// The host attachment map.
    pub fn hosts(&self) -> &HostMap {
        &self.inner.hosts
    }
}

impl DelayModel for TopologyDelay {
    fn delay(&mut self, from: usize, to: usize, _rng: &mut StdRng) -> Time {
        let Shared { ts, hosts, rows } = &*self.inner;
        let row = rows[from].get_or_init(|| {
            (0..hosts.len())
                .map(|to| ts.host_latency(hosts, from, to).max(1))
                .collect()
        });
        row[to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_symmetric_positive_and_deterministic() {
        let mut a = TopologyDelay::test_scale(32, 5);
        let mut b = TopologyDelay::test_scale(32, 5);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..32 {
            for j in 0..32 {
                let d1 = a.delay(i, j, &mut rng);
                assert_eq!(d1, b.delay(i, j, &mut rng));
                assert_eq!(d1, a.delay(j, i, &mut rng));
                assert!(d1 >= 1);
            }
        }
        assert_eq!(a.host_count(), 32);
    }

    #[test]
    fn paper_scale_router_count() {
        // Construct at reduced host count to keep the test fast; the
        // router graph is the full 8320.
        let t = TopologyDelay::paper_scale(16, 1);
        assert_eq!(t.topology().router_count(), 8320);
    }

    #[test]
    fn cached_delay_matches_uncached_model() {
        let topo = TopologyDelay::test_scale(24, 9);
        let mut clone = topo.clone();
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..24 {
            for j in 0..24 {
                let direct = topo.topology().host_latency(topo.hosts(), i, j).max(1);
                assert_eq!(clone.delay(i, j, &mut rng), direct, "({i},{j})");
            }
        }
        // A clone shares the row cache with the original: every row the
        // clone filled is memoized in `topo` too.
        assert_eq!(Arc::strong_count(&topo.inner), 2);
        assert!(topo.inner.rows.iter().all(|row| row.get().is_some()));
    }
}
