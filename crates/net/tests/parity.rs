//! Carrier parity: a simulated run whose every message crosses the wire
//! codec and a real loopback UDP socket ([`LoopbackCarrier`]) reads the
//! same trace and tables as the same run without it.
//!
//! The simulator keeps the schedule either way: delay model, RNG, timers,
//! crashes and leaves. If the codec or the socket plumbing perturbed
//! anything — a message field, a snapshot row, a sender — the
//! [`DigestTrace`] digests or the final tables would diverge.

use std::sync::{Arc, Mutex};

use hyperring_core::{
    tables_digest_iter, Carrier, DigestTrace, FailureDetector, Message, MessageKind, NodeInput,
    ProtocolOptions, RetryPolicy, SharedSink, SimNetwork, SimNetworkBuilder,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::LoopbackCarrier;
use hyperring_sim::{ConstantDelay, DelayModel, UniformDelay};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

/// What a run leaves behind: trace record count, trace digest, tables
/// digest of the live nodes, and how many messages the engines sent.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    records: u64,
    trace: u64,
    tables: u64,
    sent: u64,
}

/// Builds a traced network with `setup`, sends its messages through
/// `carrier` if one is given, drives it with `drive`, asserts that the
/// live nodes end Definition-3.8 consistent, and fingerprints the run.
fn fingerprint<D: DelayModel>(
    space: IdSpace,
    carrier: Option<Arc<dyn Carrier>>,
    setup: &dyn Fn(&mut SimNetworkBuilder) -> SimNetwork<D>,
    drive: &dyn Fn(&mut SimNetwork<D>),
) -> Fingerprint {
    let sink = SharedSink::new(DigestTrace::new());
    let mut b = SimNetworkBuilder::new(space);
    b.trace(Box::new(sink.clone()));
    if let Some(carrier) = carrier {
        b.carrier(carrier);
    }
    let mut net = setup(&mut b);
    drive(&mut net);
    let report = net.check_consistency();
    assert!(report.is_consistent(), "{report}");
    let digest = *sink.lock();
    Fingerprint {
        records: digest.count(),
        trace: digest.digest(),
        tables: tables_digest_iter(net.tables_iter()),
        sent: net.engines().map(|e| e.stats().total_sent()).sum(),
    }
}

/// A [`LoopbackCarrier`] that counts, per kind, the messages that came
/// back through the socket.
#[derive(Debug)]
struct Counting {
    inner: LoopbackCarrier,
    kinds: Mutex<[u64; MessageKind::ALL.len()]>,
}

impl Carrier for Counting {
    fn carry(&self, from: NodeId, to: NodeId, msg: Message) -> Message {
        let carried = self.inner.carry(from, to, msg);
        self.kinds.lock().unwrap()[carried.kind() as usize] += 1;
        carried
    }
}

/// Runs the scenario without and with a [`LoopbackCarrier`], asserts that
/// every message sent crossed the socket without fault and that both runs
/// read the same fingerprint, and returns the count per kind of the
/// messages carried.
fn assert_parity<D: DelayModel>(
    space: IdSpace,
    setup: &dyn Fn(&mut SimNetworkBuilder) -> SimNetwork<D>,
    drive: &dyn Fn(&mut SimNetwork<D>),
) -> [u64; MessageKind::ALL.len()] {
    let plain = fingerprint(space, None, setup, drive);
    let counting = Arc::new(Counting {
        inner: LoopbackCarrier::bind(space).expect("bind loopback"),
        kinds: Mutex::new([0; MessageKind::ALL.len()]),
    });
    let carried = fingerprint(space, Some(counting.clone()), setup, drive);
    assert_eq!(counting.inner.error(), None, "the carrier failed");
    assert_eq!(plain, carried, "the carrier changed the run");
    let kinds = *counting.kinds.lock().unwrap();
    assert_eq!(
        kinds.iter().sum::<u64>(),
        plain.sent,
        "a send bypassed the carrier"
    );
    kinds
}

/// 16 members and 48 joiners through the first member at t = 0.
fn join_wave<D: DelayModel + Clone>(
    space: IdSpace,
    opts: ProtocolOptions,
    delay: D,
) -> impl Fn(&mut SimNetworkBuilder) -> SimNetwork<D> {
    let ids = distinct(space, 64, 42);
    move |b| {
        let (v, w) = ids.split_at(16);
        b.options(opts);
        for id in v {
            b.add_member(*id);
        }
        for id in w {
            b.add_joiner(*id, v[0], 0);
        }
        b.build(delay.clone(), 7)
    }
}

fn run_to_quiescence<D: DelayModel>(net: &mut SimNetwork<D>) {
    net.run();
    assert!(net.all_in_system());
}

#[test]
fn carrier_matches_the_simulator_under_constant_delay() {
    let space = IdSpace::new(4, 6).unwrap();
    let setup = join_wave(space, ProtocolOptions::new(), ConstantDelay(1_000));
    assert_parity(space, &setup, &run_to_quiescence);
}

#[test]
fn parity_holds_with_retry_timers_armed() {
    // Every request arms and cancels a retry timer; delivery always beats
    // the timeout here, so no retry fires.
    let space = IdSpace::new(8, 4).unwrap();
    let opts = ProtocolOptions::new().with_retry(RetryPolicy::default());
    let setup = join_wave(space, opts, ConstantDelay(500));
    assert_parity(space, &setup, &run_to_quiescence);
}

#[test]
fn parity_holds_under_uniform_delay() {
    let space = IdSpace::new(4, 6).unwrap();
    let setup = join_wave(
        space,
        ProtocolOptions::new(),
        UniformDelay::new(1_000, 60_000),
    );
    assert_parity(space, &setup, &run_to_quiescence);
}

fn detector() -> FailureDetector {
    FailureDetector {
        probe_interval_us: 100_000,
        ..FailureDetector::default()
    }
}

#[test]
fn parity_holds_with_a_detector_and_a_crash() {
    let space = IdSpace::new(4, 6).unwrap();
    let opts = ProtocolOptions::new().with_failure_detector(detector());
    let setup = join_wave(space, opts, UniformDelay::new(1_000, 30_000));
    let victim = distinct(space, 64, 42)[5];
    assert_parity(space, &setup, &|net| {
        net.inject(400_000, victim, NodeInput::Crash);
        net.run_until(5_000_000);
    });
}

#[test]
fn parity_holds_for_a_network_grown_live() {
    let space = IdSpace::new(16, 4).unwrap();
    let ids = distinct(space, 96, 9);
    let setup = |b: &mut SimNetworkBuilder| {
        b.add_member(ids[0]);
        b.build(ConstantDelay(1), 0)
    };
    assert_parity(space, &setup, &|net| {
        for wave in ids[1..].chunks(19) {
            net.add_joiners_live(wave, ids[0]);
            net.run();
            assert!(net.all_in_system());
        }
    });
}

#[test]
fn every_message_kind_crosses_the_socket() {
    // 28 joiners into 4 members of a binary space make the rare SpeNoti
    // path fire (seed 10 sends 7); a leave, a crash under the detector
    // with repair, and retry timers add the rest of the vocabulary.
    let space = IdSpace::new(2, 8).unwrap();
    let ids = distinct(space, 32, 10);
    let opts = ProtocolOptions::new()
        .with_failure_detector(detector())
        .with_retry(RetryPolicy::default());
    let setup = |b: &mut SimNetworkBuilder| {
        b.options(opts);
        for id in &ids[..4] {
            b.add_member(*id);
        }
        for (i, id) in ids[4..].iter().enumerate() {
            b.add_joiner(*id, ids[i % 4], 0);
        }
        b.build(UniformDelay::new(100, 150_000), 10)
    };
    let drive = |net: &mut SimNetwork<UniformDelay>| {
        net.inject(3_000_000, ids[1], NodeInput::BeginLeave);
        net.inject(6_000_000, ids[2], NodeInput::Crash);
        net.run_until(12_000_000);
    };
    let kinds = assert_parity(space, &setup, &drive);
    let missing: Vec<_> = MessageKind::ALL
        .iter()
        .filter(|k| kinds[**k as usize] == 0)
        .map(|k| k.name())
        .collect();
    assert!(missing.is_empty(), "never crossed the socket: {missing:?}");
}
