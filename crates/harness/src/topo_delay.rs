//! Adapter: router-topology latencies as a simulator delay model.
//!
//! Two tiers:
//!
//! * [`TopologyDelay`] — owns its topology and recomputes the (cheap, but
//!   not free) hierarchical latency decomposition on every `delay` call.
//! * [`SharedTopology`] / [`CachedTopologyDelay`] — one generated topology
//!   behind an [`Arc`], shared by any number of trials, with per-source
//!   latency rows memoized into a lazily-filled host-to-host matrix. Rows
//!   are computed once, on first use, and every clone sees them;
//!   [`SharedTopology::full_matrix`] batch-fills all rows, one core per
//!   chunk of sources, when a trial sweep is about to touch everything
//!   anyway.
//!
//! Topology generation is the expensive part (Waxman wiring plus one
//! Dijkstra per transit router plus per-stub-domain APSP — seconds at the
//! paper's 8320-router scale), so multi-trial experiments should generate
//! one [`SharedTopology`] and hand each trial a [`CachedTopologyDelay`]
//! clone instead of regenerating per trial.

use std::sync::{Arc, OnceLock};

use hyperring_sim::{DelayModel, MatrixDelay, Time};
use hyperring_topology::{HostMap, TransitStub, TransitStubConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::fan_out;

/// A [`DelayModel`] backed by a transit-stub router topology: actor `i` of
/// the simulation is host `i` of the [`HostMap`], and each message takes
/// the exact shortest-path latency between the two hosts.
///
/// This reproduces the paper's simulation setup: a GT-ITM topology with
/// 8320 routers and one end-host per overlay node.
#[derive(Debug)]
pub struct TopologyDelay {
    ts: TransitStub,
    hosts: HostMap,
}

impl TopologyDelay {
    /// Generates a topology from `cfg` and attaches `hosts` end-hosts, all
    /// derived deterministically from `seed`.
    pub fn generate(cfg: &TransitStubConfig, hosts: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ts = TransitStub::generate(cfg, &mut rng);
        let hosts = HostMap::attach(&ts, hosts, &mut rng);
        TopologyDelay { ts, hosts }
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
        self.hosts.len()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &TransitStub {
        &self.ts
    }

    /// The host attachment map.
    pub fn hosts(&self) -> &HostMap {
        &self.hosts
    }
}

impl DelayModel for TopologyDelay {
    fn delay(&mut self, from: usize, to: usize, _rng: &mut StdRng) -> Time {
        self.ts.host_latency(&self.hosts, from, to).max(1)
    }
}

#[derive(Debug)]
struct SharedTopologyInner {
    ts: TransitStub,
    hosts: HostMap,
    /// Memoized host-to-host latency rows, filled on first use. Row `i`
    /// holds the (already `max(1)`-clamped) latency from host `i` to every
    /// host.
    rows: Vec<OnceLock<Arc<Vec<Time>>>>,
}

impl SharedTopologyInner {
    fn row(&self, from: usize) -> &Arc<Vec<Time>> {
        self.rows[from].get_or_init(|| Arc::new(self.compute_row(from)))
    }

    fn compute_row(&self, from: usize) -> Vec<Time> {
        (0..self.hosts.len())
            .map(|to| self.ts.host_latency(&self.hosts, from, to).max(1))
            .collect()
    }
}

/// One generated topology behind an [`Arc`], cloneable in `O(1)`, with a
/// lazily-filled host-to-host delay matrix shared by all clones.
#[derive(Debug, Clone)]
pub struct SharedTopology {
    inner: Arc<SharedTopologyInner>,
}

impl SharedTopology {
    /// Generates a topology from `cfg` and attaches `hosts` end-hosts, all
    /// derived deterministically from `seed` (the same construction as
    /// [`TopologyDelay::generate`]).
    pub fn generate(cfg: &TransitStubConfig, hosts: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ts = TransitStub::generate(cfg, &mut rng);
        let hosts = HostMap::attach(&ts, hosts, &mut rng);
        let rows = std::iter::repeat_with(OnceLock::new)
            .take(hosts.len())
            .collect();
        SharedTopology {
            inner: Arc::new(SharedTopologyInner { ts, hosts, rows }),
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

    /// Host-to-host latency (µs, clamped to ≥ 1), memoizing the whole
    /// source row on first use.
    pub fn delay(&self, from: usize, to: usize) -> Time {
        self.inner.row(from)[to]
    }

    /// A `O(1)`-per-lookup [`DelayModel`] clone sharing this topology's
    /// row cache.
    pub fn delay_model(&self) -> CachedTopologyDelay {
        CachedTopologyDelay { topo: self.clone() }
    }

    /// Batch-fills every row — the sources are independent, so they fan
    /// out across cores like trials do — and returns the dense matrix as a
    /// standalone [`MatrixDelay`].
    ///
    /// Rows already memoized by earlier lookups are reused, and rows
    /// computed here stay memoized for later [`delay`](Self::delay) calls.
    pub fn full_matrix(&self) -> MatrixDelay {
        let n = self.host_count();
        let rows: Vec<Arc<Vec<Time>>> = fan_out(n, |from| Arc::clone(self.inner.row(from)));
        let mut matrix = Vec::with_capacity(n * n);
        for row in rows {
            matrix.extend_from_slice(&row);
        }
        MatrixDelay::new(n, Arc::new(matrix))
    }
}

/// A [`DelayModel`] view of a [`SharedTopology`]: each lookup is a row
/// memoization hit (or a one-time `O(n)` row fill), so per-message cost is
/// an index into shared storage.
#[derive(Debug, Clone)]
pub struct CachedTopologyDelay {
    topo: SharedTopology,
}

impl CachedTopologyDelay {
    /// The topology this model reads from.
    pub fn shared(&self) -> &SharedTopology {
        &self.topo
    }
}

impl DelayModel for CachedTopologyDelay {
    fn delay(&mut self, from: usize, to: usize, _rng: &mut StdRng) -> Time {
        self.topo.delay(from, to)
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
        let mut uncached = TopologyDelay::test_scale(24, 9);
        let shared = SharedTopology::test_scale(24, 9);
        let mut cached = shared.delay_model();
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..24 {
            for j in 0..24 {
                assert_eq!(
                    cached.delay(i, j, &mut rng),
                    uncached.delay(i, j, &mut rng),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn full_matrix_matches_lazy_rows_and_shares_cache() {
        let shared = SharedTopology::test_scale(16, 3);
        // Touch a few entries first so the batch fill mixes memoized and
        // fresh rows.
        let early = shared.delay(3, 7);
        let mut matrix = shared.full_matrix();
        assert_eq!(matrix.len(), 16);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(matrix.delay(3, 7, &mut rng), early);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(matrix.get(i, j), shared.delay(i, j), "({i},{j})");
            }
        }
        // Clones share the row cache with the original.
        let clone = shared.clone();
        assert_eq!(clone.delay(15, 0), shared.delay(15, 0));
        assert_eq!(Arc::strong_count(&shared.inner), 2);
    }
}
