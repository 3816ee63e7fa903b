//! Property tests of the effect/event layer: the engine is a pure state
//! machine, so an engine clone fed the exact event sequence the original
//! saw must emit the exact effect sequence the original emitted — no
//! hidden state, no ambient randomness, no dependence on wall clock.

use std::collections::HashMap;

use hyperring_core::{
    build_consistent_tables, check_consistency, Effect, Effects, JoinEngine, Message, NodeInput,
    ProtocolOptions, Status,
};
use hyperring_id::{IdSpace, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

/// A minimal driver over raw engines: every in-flight `(from, to, msg)`
/// sits in one bag, and a seeded RNG picks which to deliver next — an
/// adversarial-ish interleaving without the full simulator.
struct Driver {
    engines: HashMap<NodeId, JoinEngine>,
    queue: Vec<(NodeId, NodeId, Message)>,
    rng: StdRng,
    /// Node whose deliveries and emitted effects are being recorded.
    watch: NodeId,
    /// `(from, msg, debug-of-effects)` for every delivery to `watch`.
    log: Vec<(NodeId, Message, String)>,
}

impl Driver {
    fn new(space: IdSpace, members: &[NodeId], joiners: &[(NodeId, NodeId)], seed: u64) -> Self {
        let opts = ProtocolOptions::new();
        let mut engines = HashMap::new();
        for t in build_consistent_tables(space, members) {
            engines.insert(t.owner(), JoinEngine::new_member(space, opts, t));
        }
        let mut queue = Vec::new();
        let mut out = Effects::new();
        for &(id, gw) in joiners {
            let mut e = JoinEngine::new_joiner(space, opts, id);
            e.step(NodeInput::StartJoin { gateway: gw }, &mut out);
            for (to, msg) in out.drain_sends() {
                queue.push((id, to, msg));
            }
            engines.insert(id, e);
        }
        Driver {
            engines,
            queue,
            rng: StdRng::seed_from_u64(seed),
            watch: joiners[0].0,
            log: Vec::new(),
        }
    }

    /// Delivers one randomly chosen in-flight message. Returns false once
    /// quiescent.
    fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let i = self.rng.gen_range(0..self.queue.len());
        let (from, to, msg) = self.queue.swap_remove(i);
        let mut out = Effects::new();
        let engine = self.engines.get_mut(&to).expect("known destination");
        let copy = msg.clone();
        engine.step(NodeInput::Deliver { from, msg: copy }, &mut out);
        let effects: Vec<Effect> = out.drain().collect();
        if to == self.watch {
            self.log.push((from, msg, format!("{effects:?}")));
        }
        for eff in effects {
            if let Effect::Send { to: dest, msg } = eff {
                self.queue.push((to, dest, msg));
            }
        }
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Fork one joiner's engine mid-run by cloning it, let the original
    /// finish, then replay the recorded post-fork event sequence into the
    /// clone: the effect streams must match byte for byte, and the clone
    /// must land in the same terminal state.
    #[test]
    fn identical_events_yield_identical_effects(
        seed in 0u64..100_000,
        fork_after in 0usize..30,
    ) {
        let space = IdSpace::new(4, 4).unwrap();
        let ids = distinct(space, 9, seed.rotate_left(17) | 1);
        let (v, w) = ids.split_at(6);
        let joiners: Vec<(NodeId, NodeId)> = w.iter().map(|&id| (id, v[0])).collect();
        let mut driver = Driver::new(space, v, &joiners, seed);

        for _ in 0..fork_after {
            if !driver.step() {
                break;
            }
        }
        let forked = driver.engines[&driver.watch].clone();
        driver.log.clear();
        let mut steps = 0u32;
        while driver.step() {
            steps += 1;
            prop_assert!(steps < 100_000, "driver failed to quiesce");
        }

        // The full run must itself have converged (sanity on the driver).
        for e in driver.engines.values() {
            prop_assert_eq!(e.status(), Status::InSystem);
        }
        let tables: Vec<_> = driver.engines.values().map(|e| e.table().clone()).collect();
        prop_assert!(check_consistency(space, &tables).is_consistent());

        // Replay: same events in, same effects out.
        let mut clone = forked;
        for (from, msg, expected) in &driver.log {
            let mut out = Effects::new();
            let msg = msg.clone();
            clone.step(NodeInput::Deliver { from: *from, msg }, &mut out);
            let effects: Vec<Effect> = out.drain().collect();
            prop_assert_eq!(&format!("{effects:?}"), expected);
        }
        let original = &driver.engines[&driver.watch];
        prop_assert_eq!(clone.status(), original.status());
        let fingerprint = |e: &JoinEngine| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            e.hash_state(&mut h);
            std::hash::Hasher::finish(&h)
        };
        prop_assert_eq!(fingerprint(&clone), fingerprint(original));
    }
}

// ---------------------------------------------------------------------
// `hash_state` fingerprints pinned across refactors of the engine's
// layout. Each names one kind of node state; a layout change that moves a
// field behind a pointer must read the same digest for every one of them.
// `DefaultHasher::new()` is SipHash with fixed zero keys, so the digests
// repeat from run to run; they assume a 64-bit little-endian target, and
// a toolchain whose std changed its hasher would need them re-recorded.
// ---------------------------------------------------------------------

mod fingerprints {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;

    use hyperring_core::{
        build_consistent_tables, Effects, Entry, FailureDetector, JoinEngine, Message, NodeInput,
        NodeState, ProtocolOptions, RetryPolicy, SimNetworkBuilder, Status, TimerId,
    };
    use hyperring_id::{IdSpace, NodeId};
    use hyperring_sim::UniformDelay;

    use super::distinct;

    fn fingerprint(e: &JoinEngine) -> u64 {
        let mut h = DefaultHasher::new();
        e.hash_state(&mut h);
        h.finish()
    }

    fn space() -> IdSpace {
        IdSpace::new(4, 4).unwrap()
    }

    fn id(s: &str) -> NodeId {
        space().parse_id(s).unwrap()
    }

    /// `who`'s engine in the consistent network `ids`, under `opts`.
    fn member(ids: &[&str], who: &str, opts: ProtocolOptions) -> JoinEngine {
        let ids: Vec<NodeId> = ids.iter().map(|s| id(s)).collect();
        let table = build_consistent_tables(space(), &ids)
            .into_iter()
            .find(|t| t.owner() == id(who))
            .expect("member id present");
        JoinEngine::new_member(space(), opts, table)
    }

    /// A wave of 12 joiners into 36 members, stopped after `deliveries`:
    /// the first joiner (in actor order) in each of `Copying`, `Waiting`
    /// and `Notifying`, and after the wave the first member.
    fn wave(deliveries: u64) -> ([Option<u64>; 3], u64) {
        let space = IdSpace::new(4, 5).unwrap();
        let ids = distinct(space, 48, 29);
        let (members, joiners) = ids.split_at(36);
        let mut b = SimNetworkBuilder::new(space);
        for m in members {
            b.add_member(*m);
        }
        for (i, j) in joiners.iter().enumerate() {
            b.add_joiner(*j, members[i * 3], 0);
        }
        let mut net = b.build(UniformDelay::new(1_000, 50_000), 29);
        net.run_limited(deliveries);
        let mut mid = [None; 3];
        for e in net.engines().skip(members.len()) {
            let slot = match e.status() {
                Status::Copying => 0,
                Status::Waiting => 1,
                Status::Notifying => 2,
                _ => continue,
            };
            mid[slot].get_or_insert_with(|| fingerprint(e));
        }
        net.run();
        assert!(net.all_in_system());
        (mid, fingerprint(net.engine(&members[0])))
    }

    #[test]
    fn a_member_after_a_wave_and_joiners_mid_wave() {
        let (mid, member) = wave(150);
        let [copying, waiting, notifying] = mid.map(|f| f.expect("a joiner in each status"));
        assert_eq!(copying, 17_708_795_863_572_476_931);
        assert_eq!(waiting, 13_123_782_288_993_559_212);
        assert_eq!(notifying, 14_393_536_899_975_934_989);
        assert_eq!(member, 1_094_397_433_269_294_893);
    }

    /// 0000 of `0000 3213 1113 2221 0110`, running a detector with repair
    /// on, after three ticks in which every peer but `silent` answers: with
    /// a threshold of two, `silent` is condemned and its slots evicted.
    fn with_silent_peer(silent: &str) -> JoinEngine {
        let fd = FailureDetector {
            suspicion_threshold: 2,
            ..FailureDetector::default()
        };
        let v = ["0000", "3213", "1113", "2221", "0110"];
        let mut x = member(&v, "0000", ProtocolOptions::new().with_failure_detector(fd));
        let tick = TimerId::FdProbe { owner: id("0000") };
        x.step(NodeInput::StartFailureDetector, &mut Effects::new());
        for _ in 0..3 {
            let mut out = Effects::new();
            x.step(NodeInput::TimerFired(tick), &mut out);
            for (from, _) in out.drain_sends().collect::<Vec<_>>() {
                if from != id(silent) {
                    let msg = Message::Pong;
                    x.step(NodeInput::Deliver { from, msg }, &mut Effects::new());
                }
            }
        }
        x
    }

    /// 2221 stops answering. It is condemned, its one slot (0, 1) is
    /// evicted and left vacated — no other node 0000 knows ends in 1 — and
    /// the repair query is in flight. The vacated word, attempts and
    /// backoff wait included, is part of the state.
    #[test]
    fn a_member_with_a_running_detector_a_pending_repair_and_a_condemned_peer() {
        let x = with_silent_peer("2221");
        assert!(x.table().get(0, 1).is_none(), "2221 was evicted");
        assert!(x.table().is_vacated(0, 1));
        assert_eq!(fingerprint(&x), 9_852_847_048_061_600_432);
    }

    /// 1113 stops answering. It is condemned and its one slot (0, 3) is
    /// evicted, but 3213 ends in 3 and stores 0000: the repair installs it
    /// from 0000's reverse set, as `T` and with a `RvNghNoti` out, in the
    /// tick that evicts, and sends no query.
    #[test]
    fn a_member_that_refilled_a_slot_from_its_reverse_set() {
        let x = with_silent_peer("1113");
        let refill = x.table().get(0, 3).expect("(0, 3) refilled");
        assert_eq!((refill.node, refill.state), (id("3213"), NodeState::T));
        assert_eq!(fingerprint(&x), 2_725_898_948_848_807_242);
    }

    /// 0000, under a retry policy, takes 3213 as the replacement 1113
    /// offers on leaving (a live `RvNgh` retry), then begins its own
    /// leave with its reverse neighbours' acknowledgements outstanding.
    #[test]
    fn a_member_with_a_live_retry_and_a_leave_in_progress() {
        let v = ["0000", "3213", "1113", "2221", "0110"];
        let opts = ProtocolOptions::new().with_retry(RetryPolicy::default());
        let mut x = member(&v, "0000", opts);
        let replacement = Some(Entry {
            node: id("3213"),
            state: NodeState::S,
        });
        let (from, msg) = (id("1113"), Message::LeaveNoti { replacement });
        x.step(NodeInput::Deliver { from, msg }, &mut Effects::new());
        let rv = TimerId::RvNgh { peer: id("3213") };
        assert!(x.live_timers().any(|t| t == rv));
        x.step(NodeInput::BeginLeave, &mut Effects::new());
        assert_eq!(x.status(), Status::Leaving);
        assert_eq!(fingerprint(&x), 9_914_350_188_608_270_640);
    }
}
