//! Input generation: everything that depends on `--seed` is made here and
//! handed to the library as ids, gateways, schedules and names.

use hyperring_harness::{distinct_ids, trial_seed, JoinWorkload, StormSchedule};
use hyperring_id::{IdSpace, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent stream of `seed` for one purpose, so that, say, the
/// lookup schedule does not repeat the draws that made the ids.
pub fn stream(seed: u64, purpose: usize) -> u64 {
    trial_seed(seed, purpose + 1)
}

/// `members` initial nodes and `joiners` `(joiner, gateway)` pairs, each
/// gateway a uniformly drawn member.
pub fn join_wave(space: IdSpace, members: usize, joiners: usize, seed: u64) -> JoinWorkload {
    JoinWorkload::generate(space, members, joiners, stream(seed, 0))
}

/// `n` distinct ids; the first is the bootstrap's seed node.
pub fn bootstrap_ids(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    distinct_ids(space, n, stream(seed, 1))
}

/// The simulator seed (message delays) of a wave.
pub fn sim_seed(seed: u64) -> u64 {
    stream(seed, 2)
}

/// The `i`-th churn trial's seed.
pub fn churn_seed(seed: u64, i: usize) -> u64 {
    trial_seed(stream(seed, 3), i)
}

/// What the lookup storm publishes and asks for.
#[derive(Debug, Clone)]
pub struct LookupInput {
    /// Published names, most popular first.
    pub names: Vec<String>,
    /// The node each name is published from.
    pub homes: Vec<NodeId>,
    /// `(source, name)` index pairs in firing order; names Zipf(1.0).
    pub schedule: StormSchedule,
}

pub fn lookup_ids(space: IdSpace, nodes: usize, seed: u64) -> Vec<NodeId> {
    distinct_ids(space, nodes, stream(seed, 4))
}

pub fn lookup_input(
    space: IdSpace,
    ids: Vec<NodeId>,
    names: usize,
    lookups: usize,
    seed: u64,
) -> LookupInput {
    let mut rng = StdRng::seed_from_u64(stream(seed, 5));
    let tag: u64 = rng.gen();
    let names: Vec<String> = (0..names).map(|i| format!("obj-{tag:016x}-{i}")).collect();
    let homes = names
        .iter()
        .map(|_| ids[rng.gen_range(0..ids.len())])
        .collect();
    let keys = names
        .iter()
        .map(|n| space.id_from_hash(n.as_bytes()))
        .collect();
    let schedule = StormSchedule::compile(ids, keys, lookups, 1.0, stream(seed, 6));
    LookupInput {
        names,
        homes,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::new(16, 8).unwrap()
    }

    /// Everything generated for `seed`, rendered to bytes.
    fn all_inputs(seed: u64) -> String {
        let lookup = lookup_input(space(), lookup_ids(space(), 64, seed), 128, 1000, seed);
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}",
            join_wave(space(), 48, 16, seed),
            bootstrap_ids(space(), 64, seed),
            sim_seed(seed),
            (0..4).map(|i| churn_seed(seed, i)).collect::<Vec<_>>(),
            lookup,
        )
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_inputs() {
        assert_eq!(all_inputs(7), all_inputs(7));
        let (a, b) = (all_inputs(7), all_inputs(8));
        for (x, y) in a.split('|').zip(b.split('|')) {
            assert_ne!(x, y, "a generated input ignores the seed");
        }
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let s: Vec<u64> = (0..7).map(|p| stream(1, p)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
        assert!(!s.contains(&1));
    }
}
