//! Property tests of the crash-churn subsystem: under *random* crash
//! schedules — population size, victim count, and per-victim crash
//! instants all drawn by proptest — survivors with the failure detector
//! and repair enabled must evict every dead neighbor and converge to
//! tables free of false negatives (the reachability-breaking violation
//! class), with consistency checked over survivors only.

use hyperring_core::{
    FailureDetector, NodeInput, ProtocolOptions, SimNetworkBuilder, Status, Violation,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::UniformDelay;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random membership, random victims, random (possibly overlapping)
    /// crash instants inside a 0.8 s window: after detection and repair
    /// run their course, every survivor has dropped every dead node and
    /// no vacated slot is left empty while a live node could fill it.
    #[test]
    fn survivors_reach_false_negative_free_tables(
        seed in 0u64..100_000,
        members in 8usize..16,
        crashes in 1usize..4,
    ) {
        let crashes = crashes.min(members / 3);
        let space = IdSpace::new(4, 6).unwrap();
        let ids = distinct(space, members, seed.rotate_left(23) | 1);
        let fd = FailureDetector {
            probe_interval_us: 100_000,
            ..FailureDetector::default()
        };
        let mut b = SimNetworkBuilder::new(space);
        b.options(ProtocolOptions::new().with_failure_detector(fd));
        for id in &ids {
            b.add_member(*id);
        }
        let mut net = b.build(UniformDelay::new(500, 5_000), seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
        let victims = &ids[..crashes];
        for id in victims {
            net.inject(rng.gen_range(0..800_000), *id, NodeInput::Crash);
        }
        // Crash window + suspicion build-up + several repair rounds.
        net.run_until(5_000_000);

        prop_assert_eq!(net.tables().len(), members - crashes);
        for e in net.engines() {
            if e.status() == Status::Crashed {
                continue;
            }
            for dead in victims {
                prop_assert!(
                    !e.table().iter().any(|(_, _, en)| en.node == *dead),
                    "{} still stores crashed {}", e.id(), dead
                );
            }
        }
        let report = net.check_consistency();
        let false_negatives = report
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::FalseNegative { .. }))
            .count();
        prop_assert_eq!(false_negatives, 0, "survivor tables: {}", report);
    }
}
