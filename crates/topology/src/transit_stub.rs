use std::collections::HashMap;

use rand::Rng;

use crate::{dijkstra_multi, floyd_warshall, waxman, Graph, HostMap, WaxmanConfig};

/// Parameters of the GT-ITM-style transit-stub generator.
///
/// A topology has `transit_domains` top-level domains of `transit_nodes`
/// routers each; every transit router sponsors `stubs_per_transit_node` stub
/// domains of `stub_nodes` routers, each stub domain attached to its transit
/// router through a single gateway edge. Intra-domain structure is Waxman.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit domains `T`.
    pub transit_domains: usize,
    /// Routers per transit domain `Nt`.
    pub transit_nodes: usize,
    /// Stub domains per transit router `S`.
    pub stubs_per_transit_node: usize,
    /// Routers per stub domain `Ns`.
    pub stub_nodes: usize,
    /// Waxman parameters inside transit domains (long, fat links).
    pub transit_waxman: WaxmanConfig,
    /// Waxman parameters inside stub domains (short links).
    pub stub_waxman: WaxmanConfig,
    /// Weight range (µs) for transit-domain-to-transit-domain edges.
    pub interdomain_weight: (u32, u32),
    /// Weight range (µs) for transit-router-to-stub-gateway edges.
    pub transit_stub_weight: (u32, u32),
}

impl TransitStubConfig {
    /// The full-scale configuration used to regenerate the paper's Figure
    /// 15(b): exactly 8320 routers, as in the paper's GT-ITM topology
    /// (4 transit domains × 16 routers, 3 stub domains per transit router,
    /// 43 routers per stub domain: 64 + 64·3·43 = 8320).
    pub fn paper_8320() -> Self {
        TransitStubConfig {
            transit_domains: 4,
            transit_nodes: 16,
            stubs_per_transit_node: 3,
            stub_nodes: 43,
            transit_waxman: WaxmanConfig {
                alpha: 0.6,
                beta: 0.4,
                scale: 100.0,
                weight_per_unit: 200.0, // up to ~28 ms across a transit domain
            },
            stub_waxman: WaxmanConfig {
                alpha: 0.42,
                beta: 0.4,
                scale: 100.0,
                weight_per_unit: 20.0, // up to ~2.8 ms inside a stub domain
            },
            interdomain_weight: (20_000, 60_000), // 20–60 ms
            transit_stub_weight: (2_000, 10_000), // 2–10 ms
        }
    }

    /// A small configuration (72 routers) for tests and examples.
    pub fn small() -> Self {
        TransitStubConfig {
            transit_domains: 2,
            transit_nodes: 4,
            stubs_per_transit_node: 2,
            stub_nodes: 4,
            ..Self::paper_8320()
        }
    }

    /// Total number of routers the configuration produces.
    pub fn router_count(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes;
        transit + transit * self.stubs_per_transit_node * self.stub_nodes
    }
}

#[derive(Debug, Clone)]
struct StubDomain {
    /// First router id of this domain (routers are contiguous).
    first: u32,
    /// Number of routers in the domain.
    size: u32,
    /// Transit router the domain hangs off.
    transit_attach: u32,
    /// The domain router holding the gateway edge.
    gateway: u32,
    /// Weight of the gateway edge (µs).
    gateway_weight: u32,
    /// Intra-domain all-pairs distances, row-major over local indices.
    apsp: Vec<u64>,
}

impl StubDomain {
    #[inline]
    fn local(&self, router: u32) -> usize {
        debug_assert!(router >= self.first && router < self.first + self.size);
        (router - self.first) as usize
    }

    #[inline]
    fn dist(&self, a: u32, b: u32) -> u64 {
        self.apsp[self.local(a) * self.size as usize + self.local(b)]
    }

    /// Distance from `a` to the transit attachment, through the gateway.
    #[inline]
    fn dist_to_transit(&self, a: u32) -> u64 {
        self.dist(a, self.gateway) + self.gateway_weight as u64
    }
}

/// A generated transit-stub router topology with O(1) exact shortest-path
/// queries between any two routers.
///
/// Exactness relies on a structural property the generator enforces: each
/// stub domain attaches to the transit core through a *single* gateway edge,
/// so every inter-domain path must traverse that edge and hierarchical
/// decomposition (intra-stub APSP + transit-core distances) is exact. A test
/// cross-checks this against full-graph Dijkstra.
#[derive(Debug, Clone)]
pub struct TransitStub {
    graph: Graph,
    transit_count: u32,
    /// Distances between transit routers, row-major `transit_count²`.
    transit_dist: Vec<u64>,
    /// Stub domain of each router (`None` for transit routers).
    domain_of: Vec<Option<u32>>,
    domains: Vec<StubDomain>,
}

impl TransitStub {
    /// Generates a topology from `cfg` using `rng`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `cfg` is zero.
    pub fn generate<R: Rng + ?Sized>(cfg: &TransitStubConfig, rng: &mut R) -> Self {
        assert!(
            cfg.transit_domains > 0
                && cfg.transit_nodes > 0
                && cfg.stubs_per_transit_node > 0
                && cfg.stub_nodes > 0,
            "all transit-stub dimensions must be positive"
        );
        let transit_count = (cfg.transit_domains * cfg.transit_nodes) as u32;
        let total = cfg.router_count();
        let mut graph = Graph::new(total);

        // 1. Intra-transit-domain Waxman graphs.
        for dom in 0..cfg.transit_domains {
            let base = (dom * cfg.transit_nodes) as u32;
            let sub = waxman(cfg.transit_nodes, &cfg.transit_waxman, rng);
            for v in 0..cfg.transit_nodes as u32 {
                for &(u, w) in sub.neighbors(v) {
                    if v < u {
                        graph.add_edge(base + v, base + u, w);
                    }
                }
            }
        }

        // 2. Inter-domain edges: a random spanning chain over domains plus a
        //    sprinkle of extra edges, each realized between random routers of
        //    the two domains.
        let inter = |graph: &mut Graph, rng: &mut R, d1: usize, d2: usize| {
            let a = (d1 * cfg.transit_nodes) as u32 + rng.gen_range(0..cfg.transit_nodes) as u32;
            let b = (d2 * cfg.transit_nodes) as u32 + rng.gen_range(0..cfg.transit_nodes) as u32;
            let w = rng.gen_range(cfg.interdomain_weight.0..=cfg.interdomain_weight.1);
            graph.add_edge(a, b, w);
        };
        for d in 1..cfg.transit_domains {
            inter(&mut graph, rng, d - 1, d);
        }
        for d1 in 0..cfg.transit_domains {
            for d2 in d1 + 2..cfg.transit_domains {
                if rng.gen::<f64>() < 0.5 {
                    inter(&mut graph, rng, d1, d2);
                }
            }
        }

        // 3. Stub domains, each a Waxman graph plus one gateway edge.
        let mut domains = Vec::new();
        let mut domain_of: Vec<Option<u32>> = vec![None; total];
        let mut next = transit_count;
        for t in 0..transit_count {
            for _ in 0..cfg.stubs_per_transit_node {
                let first = next;
                next += cfg.stub_nodes as u32;
                let sub = waxman(cfg.stub_nodes, &cfg.stub_waxman, rng);
                for v in 0..cfg.stub_nodes as u32 {
                    for &(u, w) in sub.neighbors(v) {
                        if v < u {
                            graph.add_edge(first + v, first + u, w);
                        }
                    }
                }
                let gateway = first + rng.gen_range(0..cfg.stub_nodes) as u32;
                let gw_w = rng.gen_range(cfg.transit_stub_weight.0..=cfg.transit_stub_weight.1);
                graph.add_edge(gateway, t, gw_w);

                let apsp = floyd_warshall(&sub);
                let idx = domains.len() as u32;
                for r in first..next {
                    domain_of[r as usize] = Some(idx);
                }
                domains.push(StubDomain {
                    first,
                    size: cfg.stub_nodes as u32,
                    transit_attach: t,
                    gateway,
                    gateway_weight: gw_w,
                    apsp,
                });
            }
        }
        debug_assert_eq!(next as usize, total);
        debug_assert!(graph.is_connected());

        // 4. Transit-core distance matrix: one full-graph Dijkstra per
        //    transit router.
        let sources: Vec<u32> = (0..transit_count).collect();
        let rows = dijkstra_multi(&graph, &sources);
        let mut transit_dist = vec![0u64; (transit_count * transit_count) as usize];
        for (t, d) in rows.iter().enumerate() {
            for u in 0..transit_count as usize {
                transit_dist[t * transit_count as usize + u] = d[u];
            }
        }

        TransitStub {
            graph,
            transit_count,
            transit_dist,
            domain_of,
            domains,
        }
    }

    /// The underlying router graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total number of routers.
    pub fn router_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of transit routers (they occupy ids `0..transit_count`).
    pub fn transit_count(&self) -> u32 {
        self.transit_count
    }

    /// Whether `router` is a stub router.
    pub fn is_stub(&self, router: u32) -> bool {
        self.domain_of[router as usize].is_some()
    }

    #[inline]
    fn tdist(&self, a: u32, b: u32) -> u64 {
        self.transit_dist[(a * self.transit_count + b) as usize]
    }

    /// Exact shortest-path latency between two routers, in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if either router id is out of range.
    pub fn router_latency(&self, a: u32, b: u32) -> u64 {
        assert!(
            (a as usize) < self.router_count() && (b as usize) < self.router_count(),
            "router out of range"
        );
        if a == b {
            return 0;
        }
        match (self.domain_of[a as usize], self.domain_of[b as usize]) {
            (None, None) => self.tdist(a, b),
            (Some(da), None) => {
                let da = &self.domains[da as usize];
                da.dist_to_transit(a) + self.tdist(da.transit_attach, b)
            }
            (None, Some(db)) => {
                let db = &self.domains[db as usize];
                self.tdist(a, db.transit_attach) + db.dist_to_transit(b)
            }
            (Some(da), Some(db)) if da == db => self.domains[da as usize].dist(a, b),
            (Some(da), Some(db)) => {
                let da = &self.domains[da as usize];
                let db = &self.domains[db as usize];
                da.dist_to_transit(a)
                    + self.tdist(da.transit_attach, db.transit_attach)
                    + db.dist_to_transit(b)
            }
        }
    }

    /// End-to-end latency between two hosts, including both access links.
    ///
    /// # Panics
    ///
    /// Panics if either host id is out of range for `hosts`.
    pub fn host_latency(&self, hosts: &HostMap, h1: usize, h2: usize) -> u64 {
        if h1 == h2 {
            return 0;
        }
        let r1 = hosts.router_of(h1);
        let r2 = hosts.router_of(h2);
        hosts.access_latency(h1) as u64
            + self.router_latency(r1, r2)
            + hosts.access_latency(h2) as u64
    }

    /// Stub router ids (hosts attach to these).
    pub fn stub_routers(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.router_count() as u32).filter(|&r| self.is_stub(r))
    }

    /// Exact direct (shortest-path) host-to-host latency rows for the
    /// given source hosts: `rows[i][h]` is the end-to-end latency from
    /// `sources[i]` to host `h`, including both access links (0 on the
    /// diagonal, as [`host_latency`](Self::host_latency)).
    ///
    /// One [`dijkstra_multi`] sweep over the deduplicated attachment
    /// routers serves every source host — the lookup-storm experiment's
    /// stretch denominator (and its per-hop routed-delay numerator) in a
    /// single pass, instead of `sources × hosts` hierarchical queries.
    ///
    /// # Panics
    ///
    /// Panics if a source host id is out of range for `hosts`.
    pub fn host_direct_rows(&self, hosts: &HostMap, sources: &[usize]) -> Vec<Vec<u64>> {
        // Dedupe the attachment routers; many hosts share a stub router.
        let mut router_slot: HashMap<u32, usize> = HashMap::new();
        let mut routers: Vec<u32> = Vec::new();
        for &s in sources {
            let r = hosts.router_of(s);
            router_slot.entry(r).or_insert_with(|| {
                routers.push(r);
                routers.len() - 1
            });
        }
        let router_rows = dijkstra_multi(&self.graph, &routers);
        sources
            .iter()
            .map(|&s| {
                let row = &router_rows[router_slot[&hosts.router_of(s)]];
                let s_access = hosts.access_latency(s) as u64;
                (0..hosts.len())
                    .map(|h| {
                        if h == s {
                            0
                        } else {
                            s_access
                                + row[hosts.router_of(h) as usize]
                                + hosts.access_latency(h) as u64
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_config_has_8320_routers() {
        assert_eq!(TransitStubConfig::paper_8320().router_count(), 8320);
    }

    #[test]
    fn generated_topology_is_connected_with_expected_counts() {
        let cfg = TransitStubConfig::small();
        let ts = TransitStub::generate(&cfg, &mut StdRng::seed_from_u64(11));
        assert_eq!(ts.router_count(), cfg.router_count());
        assert_eq!(ts.transit_count(), 8);
        assert!(ts.graph().is_connected());
        assert_eq!(ts.stub_routers().count(), 64);
    }

    #[test]
    fn hierarchical_latency_matches_full_dijkstra() {
        let cfg = TransitStubConfig::small();
        let ts = TransitStub::generate(&cfg, &mut StdRng::seed_from_u64(21));
        let n = ts.router_count();
        for src in 0..n as u32 {
            let d = dijkstra(ts.graph(), src);
            for dst in 0..n as u32 {
                assert_eq!(
                    ts.router_latency(src, dst),
                    d[dst as usize],
                    "src {src} dst {dst}"
                );
            }
        }
    }

    #[test]
    fn latency_is_symmetric_and_zero_on_diagonal() {
        let ts = TransitStub::generate(&TransitStubConfig::small(), &mut StdRng::seed_from_u64(2));
        for a in (0..ts.router_count() as u32).step_by(7) {
            assert_eq!(ts.router_latency(a, a), 0);
            for b in (0..ts.router_count() as u32).step_by(5) {
                assert_eq!(ts.router_latency(a, b), ts.router_latency(b, a));
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = TransitStub::generate(&TransitStubConfig::small(), &mut StdRng::seed_from_u64(4));
        let b = TransitStub::generate(&TransitStubConfig::small(), &mut StdRng::seed_from_u64(4));
        assert_eq!(a.router_latency(3, 50), b.router_latency(3, 50));
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }

    #[test]
    fn host_direct_rows_match_pairwise_host_latency() {
        let cfg = TransitStubConfig::small();
        let ts = TransitStub::generate(&cfg, &mut StdRng::seed_from_u64(31));
        let mut rng = StdRng::seed_from_u64(32);
        let hosts = HostMap::attach(&ts, 20, &mut rng);
        let sources: Vec<usize> = vec![0, 3, 7, 19];
        let rows = ts.host_direct_rows(&hosts, &sources);
        assert_eq!(rows.len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rows[i].len(), hosts.len());
            for (h, &row) in rows[i].iter().enumerate() {
                assert_eq!(row, ts.host_latency(&hosts, s, h), "src {s} dst {h}");
            }
        }
    }

    #[test]
    fn stub_to_stub_goes_through_transit() {
        // Latency between stubs of different transit routers must be at
        // least the two gateway weights.
        let cfg = TransitStubConfig::small();
        let ts = TransitStub::generate(&cfg, &mut StdRng::seed_from_u64(8));
        let stubs: Vec<u32> = ts.stub_routers().collect();
        let (a, b) = (stubs[0], stubs[stubs.len() - 1]);
        let lat = ts.router_latency(a, b);
        assert!(
            lat >= 2 * cfg.transit_stub_weight.0 as u64,
            "latency {lat} suspiciously small"
        );
    }
}
