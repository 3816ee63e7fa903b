//! The keyed lookup-storm workload: Zipf/uniform key popularity, compiled
//! storm schedules, and the stretch / hop / load statistics every runner
//! reports through [`LookupStats`].
//!
//! A storm is compiled before it runs ([`StormSchedule::compile`]): the
//! full `(source, key)` draw sequence is materialized from a seed, so two
//! arms (paper-faithful vs adaptive tables) can replay the *identical*
//! schedule and differ only in the tables they route over. Execution
//! ([`run_schedule`]) walks each lookup through
//! [`ObjectStore::root_from_with`], which borrows the network's tables —
//! zero per-lookup clones or allocations — and accumulates per-node
//! forwarding load, hop histograms, and (when a latency oracle is
//! supplied) end-to-end latency stretch against the exact direct delay.

use std::collections::HashMap;

use hyperring_core::DemandProfile;
use hyperring_id::NodeId;
use hyperring_object::ObjectStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::percentile;

/// Borrowed host-to-host delay oracle handed to [`run_schedule`] when the
/// storm should report latency stretch (without one, only hops and load
/// are measured).
pub type DelayFn<'a> = &'a dyn Fn(&NodeId, &NodeId) -> u64;

/// A Zipf(α) sampler over ranks `0..n` (rank 0 most popular), via inverse
/// CDF over the precomputed normalized weights `1/(k+1)^α`. `α = 0` is the
/// uniform distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `alpha ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(alpha >= 0.0 && alpha.is_finite(), "bad exponent {alpha}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A fully materialized storm: the source nodes, the key (object)
/// identifiers, and every `(source, key)` draw in firing order. Two runs
/// over the same schedule issue byte-identical lookups — the "identical
/// compiled schedules" both arms of the lookup experiment share.
#[derive(Debug, Clone)]
pub struct StormSchedule {
    /// The lookup sources (live nodes), indexable by the draws.
    pub sources: Vec<NodeId>,
    /// The object identifiers, indexable by the draws; index order is
    /// popularity order under Zipf.
    pub keys: Vec<NodeId>,
    /// `(source index, key index)` per lookup, in firing order.
    pub draws: Vec<(u32, u32)>,
}

impl StormSchedule {
    /// Compiles `lookups` draws: sources uniform over `sources`, keys
    /// Zipf(`exponent`) over `keys` (0 = uniform popularity), all from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` or `keys` is empty.
    pub fn compile(
        sources: Vec<NodeId>,
        keys: Vec<NodeId>,
        lookups: usize,
        exponent: f64,
        seed: u64,
    ) -> Self {
        assert!(!sources.is_empty(), "a storm needs sources");
        assert!(!keys.is_empty(), "a storm needs keys");
        let zipf = Zipf::new(keys.len(), exponent);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = (0..lookups)
            .map(|_| {
                let s = rng.gen_range(0..sources.len()) as u32;
                let k = zipf.sample(&mut rng) as u32;
                (s, k)
            })
            .collect();
        StormSchedule {
            sources,
            keys,
            draws,
        }
    }

    /// Number of scheduled lookups.
    pub fn len(&self) -> usize {
        self.draws.len()
    }

    /// Whether no lookups are scheduled.
    pub fn is_empty(&self) -> bool {
        self.draws.is_empty()
    }
}

/// Latency-stretch percentiles of a storm (routed delay over exact direct
/// delay, per delivered lookup whose direct delay is nonzero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchSummary {
    /// Lookups the stretch sample covers.
    pub samples: usize,
    /// Mean stretch.
    pub mean: f64,
    /// Median stretch.
    pub median: f64,
    /// 95th-percentile stretch.
    pub p95: f64,
    /// 99th-percentile stretch.
    pub p99: f64,
}

/// Per-node forwarding-load summary of a storm. A node's load is the
/// number of lookups it handled as a forwarder or root (the issuing
/// source is not counted); the mean is over **all** storm sources, loaded
/// or not, so `imbalance = max/mean` reflects how far the hottest node
/// sits above a perfectly spread workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Heaviest per-node load.
    pub max: u64,
    /// Mean load over all nodes.
    pub mean: f64,
    /// `max / mean` (1.0 for a perfectly balanced storm; 0 when no load).
    pub imbalance: f64,
    /// Nodes that handled at least one lookup.
    pub loaded_nodes: usize,
}

/// Routing statistics of one keyed lookup storm.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupStats {
    /// Lookups routed, lost ones included.
    pub lookups: usize,
    /// Lookups whose walk ended on a node the store holds no table for
    /// (crashed, departed or still joining), so no root answered. They
    /// load the nodes they passed and count nowhere else below.
    pub lost: usize,
    /// Distinct keys in the schedule.
    pub keys: usize,
    /// Mean overlay hops per resolved lookup.
    pub mean_hops: f64,
    /// Longest resolved path observed.
    pub max_hops: usize,
    /// `hop_histogram[h]` = lookups resolved in exactly `h` hops; it sums
    /// to `lookups - lost`.
    pub hop_histogram: Vec<u64>,
    /// Latency stretch, when the runner had a latency oracle (topology
    /// runs); `None` under abstract delay models.
    pub stretch: Option<StretchSummary>,
    /// Per-node forwarding load.
    pub load: LoadStats,
}

/// Routes every lookup of `schedule` over `store`'s borrowed tables and
/// summarizes hops, load, and (with `latency`) stretch.
///
/// `latency(a, b)` must be the **direct** (shortest-path) delay between
/// nodes; routed delay is summed per hop from the same oracle, so stretch
/// is exactly `Σ hop delays / direct(source, root)`. Lookups whose source
/// already is the root (0 hops) carry no stretch sample, and neither do
/// lost ones ([`LookupStats::lost`]).
///
/// With `demand` supplied, every hop is recorded into the
/// [`DemandProfile`] (the adaptive arm's warmup pass). Routing itself
/// never mutates the tables — observation cannot perturb the network.
///
/// # Panics
///
/// Panics if a scheduled source is unknown to `store`; never on a walk
/// that ends on a dangling entry.
pub fn run_schedule(
    store: &ObjectStore<'_>,
    schedule: &StormSchedule,
    latency: Option<DelayFn<'_>>,
    mut demand: Option<&mut DemandProfile>,
) -> LookupStats {
    let d = store.space().digit_count();
    let slot_of: HashMap<NodeId, usize> = schedule
        .sources
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let mut load: Vec<u64> = vec![0; schedule.sources.len()];
    let mut hop_histogram: Vec<u64> = vec![0; d + 1];
    let mut hops_total = 0usize;
    let mut max_hops = 0usize;
    let mut lost = 0usize;
    let mut stretches: Vec<f64> = Vec::new();
    for &(si, ki) in &schedule.draws {
        let source = schedule.sources[si as usize];
        let key = &schedule.keys[ki as usize];
        let mut routed: u64 = 0;
        let (root, hops) = store.root_from_with(source, key, |h| {
            if let Some(&slot) = slot_of.get(&h.to) {
                load[slot] += 1;
            }
            if let Some(lat) = latency {
                routed += lat(&h.from, &h.to);
            }
            if let Some(dem) = demand.as_deref_mut() {
                dem.record_hop(h.from, h.level, h.digit, source);
            }
        });
        if !store.contains(&root) {
            lost += 1;
            continue;
        }
        hops_total += hops;
        max_hops = max_hops.max(hops);
        hop_histogram[hops.min(d)] += 1;
        if let Some(lat) = latency {
            let direct = lat(&source, &root);
            if direct > 0 {
                stretches.push(routed as f64 / direct as f64);
            }
        }
    }
    let lookups = schedule.draws.len();
    let resolved = lookups - lost;
    let stretch = latency.map(|_| {
        // Summed in sorted order, as the recorded results were.
        stretches.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = stretches.len();
        let pct = |p| percentile(&stretches, p).unwrap_or(1.0);
        StretchSummary {
            samples: n,
            mean: if n == 0 {
                1.0
            } else {
                stretches.iter().sum::<f64>() / n as f64
            },
            median: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
        }
    });
    let max = load.iter().copied().max().unwrap_or(0);
    let total: u64 = load.iter().sum();
    let mean = total as f64 / schedule.sources.len() as f64;
    LookupStats {
        lookups,
        lost,
        keys: schedule.keys.len(),
        mean_hops: if resolved == 0 {
            0.0
        } else {
            hops_total as f64 / resolved as f64
        },
        max_hops,
        hop_histogram,
        stretch,
        load: LoadStats {
            max,
            mean,
            imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            loaded_nodes: load.iter().filter(|&&l| l > 0).count(),
        },
    }
}

/// Derives `count` deterministic object identifiers for a storm, hashed
/// from `tag` (rank order = popularity order under Zipf).
pub fn storm_keys(space: hyperring_id::IdSpace, tag: &str, count: usize) -> Vec<NodeId> {
    (0..count)
        .map(|i| space.id_from_hash(format!("{tag}-{i}").as_bytes()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_core::build_consistent_tables;
    use hyperring_id::IdSpace;

    fn network(n: usize, seed: u64) -> (IdSpace, Vec<NodeId>, Vec<hyperring_core::NeighborTable>) {
        let space = IdSpace::new(16, 5).unwrap();
        let ids = crate::workload::distinct_ids(space, n, seed);
        let tables = build_consistent_tables(space, &ids);
        (space, ids, tables)
    }

    #[test]
    fn zipf_zero_exponent_is_uniform_and_heavy_alpha_skews() {
        let mut rng = StdRng::seed_from_u64(3);
        let uniform = Zipf::new(10, 0.0);
        let skewed = Zipf::new(10, 1.2);
        let mut ucount = [0usize; 10];
        let mut scount = [0usize; 10];
        for _ in 0..20_000 {
            ucount[uniform.sample(&mut rng)] += 1;
            scount[skewed.sample(&mut rng)] += 1;
        }
        assert!(
            ucount.iter().all(|&c| c > 1_500),
            "uniform draw skewed: {ucount:?}"
        );
        assert!(
            scount[0] > 3 * scount[9],
            "zipf(1.2) rank 0 not dominant: {scount:?}"
        );
        // Every rank remains reachable.
        assert!(scount.iter().all(|&c| c > 0));
    }

    #[test]
    fn schedule_is_deterministic_and_replayable() {
        let (space, ids, tables) = network(24, 5);
        let keys = storm_keys(space, "k", 16);
        let a = StormSchedule::compile(ids.clone(), keys.clone(), 500, 0.8, 42);
        let b = StormSchedule::compile(ids, keys, 500, 0.8, 42);
        assert_eq!(a.draws, b.draws);
        let store = ObjectStore::over(space, &tables);
        let s1 = run_schedule(&store, &a, None, None);
        let s2 = run_schedule(&store, &b, None, None);
        assert_eq!(s1, s2);
        assert_eq!(s1.lookups, 500);
        assert_eq!(s1.hop_histogram.iter().sum::<u64>(), 500);
        assert!(s1.stretch.is_none(), "no oracle, no stretch");
    }

    #[test]
    fn stats_with_latency_oracle_are_sane() {
        let (space, ids, tables) = network(32, 7);
        let keys = storm_keys(space, "obj", 8);
        let schedule = StormSchedule::compile(ids, keys, 800, 1.0, 9);
        let store = ObjectStore::over(space, &tables);
        // Synthetic symmetric latency.
        let lat = |a: &NodeId, b: &NodeId| -> u64 {
            if a == b {
                0
            } else {
                let (x, y) = if a < b { (a, b) } else { (b, a) };
                use std::collections::hash_map::DefaultHasher;
                use std::hash::{Hash, Hasher};
                let mut h = DefaultHasher::new();
                (x, y).hash(&mut h);
                1 + h.finish() % 1000
            }
        };
        let mut demand = DemandProfile::new();
        let stats = run_schedule(&store, &schedule, Some(&lat), Some(&mut demand));
        let st = stats.stretch.expect("oracle supplied");
        assert!(
            st.mean >= 1.0,
            "stretch below 1 impossible, got {}",
            st.mean
        );
        assert!(st.median <= st.p95 && st.p95 <= st.p99);
        assert!(stats.load.imbalance >= 1.0);
        assert_eq!(
            demand.total_hops(),
            stats
                .hop_histogram
                .iter()
                .enumerate()
                .map(|(h, c)| h as u64 * c)
                .sum::<u64>(),
            "every hop recorded in the demand profile"
        );
    }

    /// Recorded before `ObjectStore` routed over node indices: what a
    /// storm reports does not depend on how the store walks its tables.
    #[test]
    fn stats_of_a_fixed_schedule_are_pinned() {
        let (space, ids, tables) = network(48, 17);
        let keys = storm_keys(space, "pin", 24);
        let schedule = StormSchedule::compile(ids, keys, 2_000, 0.9, 5);
        let store = ObjectStore::over(space, &tables);
        // Distance on the line: symmetric, zero on the diagonal only.
        let lat = |a: &NodeId, b: &NodeId| -> u64 {
            let at = |id: &NodeId| id.to_value(16).expect("five digits") as u64;
            at(a).abs_diff(at(b))
        };
        let stats = run_schedule(&store, &schedule, Some(&lat), None);
        assert_eq!((stats.mean_hops, stats.max_hops, stats.lost), (1.724, 3, 0));
        assert_eq!(stats.hop_histogram, [43, 857, 709, 391, 0, 0]);
        assert_eq!(
            stats.load,
            LoadStats {
                max: 449,
                mean: 71.83333333333333,
                imbalance: 6.250580046403713,
                loaded_nodes: 24,
            }
        );
        assert_eq!(
            stats.stretch,
            Some(StretchSummary {
                samples: 1957,
                mean: 11.364936854606126,
                median: 1.0,
                p95: 33.22890835950846,
                p99: 245.3911146370488,
            })
        );
    }

    #[test]
    fn storms_do_not_perturb_the_tables() {
        let (space, ids, tables) = network(24, 11);
        let digest_before = hyperring_core::tables_digest(&tables);
        let keys = storm_keys(space, "p", 8);
        let schedule = StormSchedule::compile(ids, keys, 400, 0.8, 1);
        let store = ObjectStore::over(space, &tables);
        let mut demand = DemandProfile::new();
        let _ = run_schedule(&store, &schedule, None, Some(&mut demand));
        drop(store);
        assert_eq!(hyperring_core::tables_digest(&tables), digest_before);
    }
}
