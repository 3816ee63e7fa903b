//! Workload construction and the trial runner shared by all experiments.

use hyperring_id::{IdSpace, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::cores;

/// Derives the seed of trial `trial` from an experiment's base seed.
///
/// Trial 0 uses the base seed unchanged, so a one-trial run reproduces the
/// single-run experiment exactly; later trials get SplitMix64-separated
/// streams so neighboring trial indices share no low-bit structure.
pub fn trial_seed(base: u64, trial: usize) -> u64 {
    if trial == 0 {
        return base;
    }
    // SplitMix64 finalizer over (base, trial).
    let mut z = base.wrapping_add((trial as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `trials` independent trials of `f`, fanned across cores.
///
/// Trial `k` receives `(k, trial_seed(base_seed, k))`; results come back
/// in trial order regardless of thread count, so the output is
/// bit-identical to `(0..trials).map(..)` — parallelism changes
/// wall-clock time only. (Equality holds because each trial derives all
/// of its randomness from its own seed and shares no mutable state.)
pub fn run_trials<R, F>(trials: usize, base_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
{
    fan_out(trials, |k| f(k, trial_seed(base_seed, k)))
}

/// Maps `f` over `0..n` with one contiguous chunk of indices per core and
/// returns the results in index order. The crate's only parallel path:
/// independent trials and samples fan out here, while the libraries they
/// call stay sequential. With one item or one core it runs inline, and a
/// panic in `f` propagates to the caller.
pub fn fan_out<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = cores().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                scope.spawn(move || (start..n.min(start + chunk)).map(f).collect::<Vec<R>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Draws `n` *distinct* uniformly random identifiers, deterministically
/// from `seed`.
///
/// # Panics
///
/// Panics if the space cannot hold `n` distinct identifiers.
pub fn distinct_ids(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    if let Some(cap) = space.capacity() {
        assert!(
            (n as u128) <= cap,
            "cannot draw {n} distinct ids from a space of {cap}"
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = space.random_id(&mut rng);
        if seen.insert(id) {
            out.push(id);
        }
    }
    out
}

/// Splits a drawn identifier population into members `V` and joiners `W`
/// and assigns every joiner a random member as gateway (assumption (ii) of
/// §3.1: each joiner knows *some* node in `V`).
#[derive(Debug, Clone)]
pub struct JoinWorkload {
    /// The identifier space.
    pub space: IdSpace,
    /// Members of the initial consistent network.
    pub members: Vec<NodeId>,
    /// `(joiner, gateway)` pairs; all joins start at t = 0.
    pub joiners: Vec<(NodeId, NodeId)>,
}

impl JoinWorkload {
    /// Builds a workload of `n` members and `m` joiners.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the space is too small for `n + m` ids.
    pub fn generate(space: IdSpace, n: usize, m: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one member");
        let ids = distinct_ids(space, n + m, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let members = ids[..n].to_vec();
        let joiners = ids[n..]
            .iter()
            .map(|&id| (id, members[rng.gen_range(0..n)]))
            .collect();
        JoinWorkload {
            space,
            members,
            joiners,
        }
    }

    /// Total number of nodes (`n + m`).
    pub fn total(&self) -> usize {
        self.members.len() + self.joiners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_ids_are_distinct_and_deterministic() {
        let space = IdSpace::new(16, 8).unwrap();
        let a = distinct_ids(space, 500, 42);
        let b = distinct_ids(space, 500, 42);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 500);
        let c = distinct_ids(space, 500, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_gateways_are_members() {
        let space = IdSpace::new(16, 8).unwrap();
        let w = JoinWorkload::generate(space, 50, 20, 7);
        assert_eq!(w.members.len(), 50);
        assert_eq!(w.joiners.len(), 20);
        assert_eq!(w.total(), 70);
        for (j, g) in &w.joiners {
            assert!(w.members.contains(g));
            assert!(!w.members.contains(j));
        }
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn overfull_space_rejected() {
        let space = IdSpace::new(2, 2).unwrap();
        distinct_ids(space, 5, 0);
    }

    #[test]
    fn trial_zero_keeps_base_seed_and_later_trials_diverge() {
        assert_eq!(trial_seed(2003, 0), 2003);
        let s1 = trial_seed(2003, 1);
        let s2 = trial_seed(2003, 2);
        assert_ne!(s1, 2003);
        assert_ne!(s1, s2);
        // Different bases with the same trial index stay separated.
        assert_ne!(trial_seed(2003, 1), trial_seed(2004, 1));
    }

    #[test]
    fn fanned_out_runs_equal_a_plain_map() {
        // Empty input, fewer items than cores, uneven chunks, many chunks.
        let space = IdSpace::new(8, 4).unwrap();
        let trial = |k: usize, seed: u64| (k, seed, distinct_ids(space, 3 + k % 3, seed));
        let square = |i: usize| i * i + 1;
        for n in [0, 1, 2, 3, 7, 64] {
            let plain: Vec<_> = (0..n).map(|k| trial(k, trial_seed(2003, k))).collect();
            assert_eq!(run_trials(n, 2003, trial), plain, "run_trials, n = {n}");
            assert_eq!(
                fan_out(n, square),
                (0..n).map(square).collect::<Vec<_>>(),
                "fan_out, n = {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "trial 5 failed")]
    fn a_panicking_trial_propagates_out_of_fan_out() {
        fan_out(8, |k| assert!(k != 5, "trial {k} failed"));
    }
}
