//! Equivalence pins for the streaming Definition-3.8 verification stack:
//! the compact-index checker (`check_consistency`), the combined
//! digest+check pass, and sampled reachability must all agree — violation
//! for violation, in order — with the reference implementations
//! (`check_consistency_naive`, `tables_digest`, `check_reachability`) on
//! random memberships and after random table corruption; a crash/repair
//! wave is checked at every step.

use hyperring_core::{
    build_consistent_tables, check_consistency, check_consistency_naive, check_reachability,
    check_reachability_sampled, digest_and_check_streaming, tables_digest, tables_digest_iter,
    Entry, FailureDetector, NeighborTable, NodeInput, NodeState, ProtocolOptions,
    SimNetworkBuilder,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::UniformDelay;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

/// Applies `count` random mutations — blanked entries, stale-T states,
/// and (with `ghosts`) non-member neighbors that *fit* their slot, so
/// only the membership test can reject them — seeding every
/// Definition-3.8 violation class. Ghosts are skipped for workloads that
/// go on to *route* over the tables: `route` (rightly) panics on a hop to
/// a node that has no table.
fn corrupt_tables(
    space: IdSpace,
    tables: &mut [NeighborTable],
    count: usize,
    seed: u64,
    ghosts: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let members: std::collections::HashSet<NodeId> = tables.iter().map(|t| t.owner()).collect();
    let (d, b) = (space.digit_count(), space.base() as u8);
    let kinds = if ghosts { 3u8 } else { 2 };
    for _ in 0..count {
        let ti = rng.gen_range(0..tables.len());
        let level = rng.gen_range(0..d);
        let digit = rng.gen_range(0..b);
        match rng.gen_range(0..kinds) {
            0 => tables[ti].clear(level, digit),
            1 => {
                if let Some(e) = tables[ti].get(level, digit) {
                    tables[ti].set(
                        level,
                        digit,
                        Entry {
                            node: e.node,
                            state: NodeState::T,
                        },
                    );
                }
            }
            _ => {
                // A ghost that carries the desired suffix but is no member.
                let desired = tables[ti].desired_suffix(level, digit);
                let mut digits = desired.digits_lsd().to_vec();
                while digits.len() < d {
                    digits.push(rng.gen_range(0..b));
                }
                let ghost = NodeId::from_digits_lsd(&digits);
                if !members.contains(&ghost) {
                    tables[ti].set(
                        level,
                        digit,
                        Entry {
                            node: ghost,
                            state: NodeState::S,
                        },
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// On clean oracle tables over a random membership, the checker and
    /// the naive scan report the same (empty) result and the same entry
    /// counts, and the combined pass reproduces the canonical digest byte
    /// for byte.
    #[test]
    fn streaming_equals_naive_on_clean_tables(
        seed in 0u64..100_000,
        n in 2usize..24,
    ) {
        let space = IdSpace::new(4, 5).unwrap();
        let ids = distinct(space, n, seed | 1);
        let tables = build_consistent_tables(space, &ids);

        let naive = check_consistency_naive(space, &tables);
        let streaming = check_consistency(space, &tables);
        prop_assert_eq!(streaming.violations(), naive.violations());
        prop_assert_eq!(streaming.nodes(), naive.nodes());
        prop_assert_eq!(streaming.entries_checked(), naive.entries_checked());
        prop_assert!(streaming.is_consistent());

        let (digest, combined) = digest_and_check_streaming(space, &tables);
        prop_assert_eq!(digest, tables_digest(&tables));
        prop_assert_eq!(combined.violations(), naive.violations());
    }

    /// After random blanking/staling/ghost-insertion, the checker and the
    /// naive scan still agree on the exact violation list — same order,
    /// same witnesses — and the combined pass still matches both halves.
    #[test]
    fn streaming_equals_naive_after_corruption(
        seed in 0u64..100_000,
        n in 2usize..20,
        mutations in 1usize..12,
    ) {
        let space = IdSpace::new(4, 5).unwrap();
        let ids = distinct(space, n, seed.rotate_left(17) | 1);
        let mut tables = build_consistent_tables(space, &ids);
        corrupt_tables(space, &mut tables, mutations, seed ^ 0x0bad_5eed, true);

        let naive = check_consistency_naive(space, &tables);
        let streaming = check_consistency(space, &tables);
        prop_assert_eq!(streaming.violations(), naive.violations());

        let (digest, combined) = digest_and_check_streaming(space, &tables);
        prop_assert_eq!(digest, tables_digest(&tables));
        prop_assert_eq!(combined.violations(), streaming.violations());
    }

    /// Sampled reachability failures are a subset of the all-pairs
    /// failures, deterministic for a fixed seed, and empty on consistent
    /// tables.
    #[test]
    fn sampled_reachability_is_a_sound_sample(
        seed in 0u64..100_000,
        n in 3usize..14,
        mutations in 0usize..6,
    ) {
        let space = IdSpace::new(4, 5).unwrap();
        let ids = distinct(space, n, seed.rotate_left(9) | 1);
        let mut tables = build_consistent_tables(space, &ids);
        corrupt_tables(space, &mut tables, mutations, seed ^ 0x005a_11ed, false);

        let all: std::collections::HashSet<(NodeId, NodeId)> =
            check_reachability(&tables).into_iter().collect();
        let refs: Vec<&NeighborTable> = tables.iter().collect();
        let sampled = check_reachability_sampled(&refs, 64, seed);
        for pair in &sampled {
            prop_assert!(all.contains(pair), "sampled failure {pair:?} not in all-pairs");
        }
        prop_assert_eq!(&check_reachability_sampled(&refs, 64, seed), &sampled);
        if all.is_empty() {
            prop_assert!(sampled.is_empty());
        }
    }
}

/// The same parity at a size where every level of the range descent and
/// the witness segment tree is populated (b=16, d=8, n=2048), with every
/// violation class injected. The naive scan is `O(n² · d · b)`: seconds in
/// release, minutes in debug, hence ignored by default and run in CI's
/// release-mode determinism step.
#[test]
#[ignore = "slow in debug builds; run with --ignored --release"]
fn streaming_equals_naive_n2048_after_corruption() {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct(space, 2048, 13);
    let mut tables = build_consistent_tables(space, &ids);
    corrupt_tables(space, &mut tables, 256, 0x0bad_5eed, true);

    let naive = check_consistency_naive(space, &tables);
    let streaming = check_consistency(space, &tables);
    assert_eq!(streaming.violations(), naive.violations());
    assert_eq!(streaming.entries_checked(), naive.entries_checked());
    assert!(
        streaming.violations().len() >= 64,
        "corruption did not land"
    );

    let (digest, combined) = digest_and_check_streaming(space, &tables);
    assert_eq!(digest, tables_digest(&tables));
    assert_eq!(combined.violations(), naive.violations());
}

/// A crash wave checked at every horizon step: the checker surfaces the
/// violations it opens in both arms, the repair-on arm converges, and the
/// repair-off control ends with persistent violations.
#[test]
fn checks_across_crash_repair_wave_converge_only_with_repair() {
    for repair in [true, false] {
        let space = IdSpace::new(4, 6).unwrap();
        let ids = distinct(space, 14, 11);
        let fd = FailureDetector {
            probe_interval_us: 100_000,
            suspicion_threshold: 3,
            repair,
            ..FailureDetector::default()
        };
        let mut b = SimNetworkBuilder::new(space);
        b.options(ProtocolOptions::new().with_failure_detector(fd));
        for id in &ids {
            b.add_member(*id);
        }
        let mut net = b.build(UniformDelay::new(500, 5_000), 7);
        let mut rng = StdRng::seed_from_u64(41);
        for id in &ids[..3] {
            net.inject(rng.gen_range(0..800_000), *id, NodeInput::Crash);
        }

        let mut saw_violations = false;
        for step in 1..=10u64 {
            net.run_until(step * 500_000);
            saw_violations |= !check_consistency(space, net.tables_iter()).is_consistent();
        }
        let end = check_consistency(space, net.tables_iter());
        if repair {
            assert!(end.is_consistent(), "repair arm failed to converge: {end}");
        } else {
            assert!(
                !end.is_consistent(),
                "control arm should retain false negatives"
            );
        }
        assert!(
            saw_violations,
            "repair={repair}: the wave never surfaced a violation to track"
        );
    }
}

/// `tables_iter` exposes exactly the tables `tables()` clones — same
/// owners, same order, same canonical digest — so every ported call site
/// sees identical data.
#[test]
fn tables_iter_matches_materialized_tables() {
    let space = IdSpace::new(8, 5).unwrap();
    let ids = distinct(space, 20, 3);
    let mut b = SimNetworkBuilder::new(space);
    for id in &ids[..12] {
        b.add_member(*id);
    }
    for id in &ids[12..] {
        b.add_joiner(*id, ids[0], 0);
    }
    let mut net = b.build(UniformDelay::new(1_000, 50_000), 9);
    net.run();
    assert!(net.all_in_system());

    let cloned = net.tables();
    let borrowed_owners: Vec<NodeId> = net.tables_iter().map(|t| t.owner()).collect();
    let cloned_owners: Vec<NodeId> = cloned.iter().map(|t| t.owner()).collect();
    assert_eq!(borrowed_owners, cloned_owners);
    assert_eq!(
        tables_digest_iter(net.tables_iter()),
        tables_digest(&cloned)
    );
}

/// A concretely broken network: sampled reachability actually catches the
/// hole the blanked entry opens (not just vacuously empty).
#[test]
fn sampled_reachability_finds_a_real_hole() {
    let space = IdSpace::new(4, 3).unwrap();
    let ids: Vec<NodeId> = ["012", "230", "111"]
        .iter()
        .map(|s| space.parse_id(s).unwrap())
        .collect();
    let mut tables = build_consistent_tables(space, &ids);
    tables[0].clear(0, 1); // 012's only route toward 111 starts here
    let refs: Vec<&NeighborTable> = tables.iter().collect();
    let all = check_reachability(refs.iter().copied());
    assert!(!all.is_empty());
    // 64 draws over 6 ordered pairs: the failing pair is sampled w.h.p.
    let sampled = check_reachability_sampled(&refs, 64, 5);
    assert!(!sampled.is_empty(), "64 draws over 6 pairs missed the hole");
    for pair in &sampled {
        assert!(all.contains(pair));
    }
}
