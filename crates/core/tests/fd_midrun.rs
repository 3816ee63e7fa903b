//! Mid-run dynamics regressions: failure-detector arming for nodes that
//! enter the system *after* t = 0, and the join-fallback path for
//! joiners whose contact crashes mid-handshake.
//!
//! Both close the same gap from opposite ends. A node only arms its
//! probe timers when it reaches *in_system*, so (a) a node injected into
//! a live network must still end up probing — and evicting — crashed
//! neighbors, and (b) a joiner whose gateway or awaited peer dies
//! mid-join must not strand forever in a pre-`in_system` status where no
//! detector will ever rescue it.
//!
//! The file also holds ROADMAP item 1's shrunk `churn` schedules S0–S3′.
//! S0 and S3′ end Definition-3.8 consistent since the repair origin
//! refills a vacated slot from its own reverse set. The others are each
//! pinned at the ending they reach today, with an ignored twin that
//! asserts Definition 3.8. Every pin also runs `*_over_loopback`, with
//! each message sent through the wire codec and a real loopback socket
//! ([`common::Hop`]), and must end the same way.

mod common;

use std::sync::{Arc, Mutex};

use common::Hop;

use hyperring_core::{
    check_consistency, ConsistencyReport, FailureDetector, NodeInput, ProtocolEvent,
    ProtocolOptions, RetryPolicy, SimNetwork, SimNetworkBuilder, Status, TraceRecord, TraceSink,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{ConstantDelay, UniformDelay};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

/// Counts the fallback trace events of a run.
#[derive(Debug, Default, Clone)]
struct FallbackCounter(Arc<Mutex<(u32, u32)>>);

impl TraceSink for FallbackCounter {
    fn record(&mut self, rec: &TraceRecord) {
        let mut c = self.0.lock().unwrap();
        match rec.event {
            ProtocolEvent::JoinRerouted { .. } => c.0 += 1,
            ProtocolEvent::JoinStranded { .. } => c.1 += 1,
            _ => {}
        }
    }
}

/// A node injected into an already-running network must arm its failure
/// detector on reaching *in_system*: when one of its neighbors later
/// crashes, the late joiner has to notice and evict it on its own.
#[test]
fn live_injected_joiner_detects_crashes() {
    let space = IdSpace::new(4, 6).unwrap();
    let ids = distinct(space, 12, 11);
    let fd = FailureDetector {
        probe_interval_us: 100_000,
        ..FailureDetector::default()
    };
    let mut b = SimNetworkBuilder::new(space);
    b.options(ProtocolOptions::new().with_failure_detector(fd));
    for id in &ids[..10] {
        b.add_member(*id);
    }
    let mut net = b.build(ConstantDelay(500), 7);
    net.inject(50_000, ids[0], NodeInput::Crash);
    net.run_until(2_000_000);

    // Inject a joiner into the live network after the crash wave settled.
    net.inject(net.now(), ids[10], NodeInput::StartJoin { gateway: ids[1] });
    net.run_until(5_000_000);
    assert_eq!(net.engine(&ids[10]).status(), Status::InSystem);

    // Now crash a neighbor the late joiner stores; only the joiner's own
    // detector can evict it from the joiner's table.
    let victim = net
        .engine(&ids[10])
        .table()
        .iter()
        .map(|(_, _, e)| e.node)
        .find(|n| *n != ids[10] && *n != ids[0])
        .unwrap();
    net.inject(5_500_000, victim, NodeInput::Crash);
    net.run_until(12_000_000);
    let still = net
        .engine(&ids[10])
        .table()
        .iter()
        .any(|(_, _, e)| e.node == victim);
    assert!(
        !still,
        "live-injected joiner never evicted crashed neighbor {victim} (FdProbe not armed?)"
    );
}

/// Runs the join-after-crash schedule: a joiner starts at t = 0 and its
/// gateway crashes `crash_at` in. The gateway is the only member sharing
/// the joiner's suffix digit, so it stays load-bearing for the whole
/// handshake (copy source *and* wait target) — a crash after the first
/// copy round leaves the joiner holding live contacts but depending on a
/// dead peer. Every node runs a retry policy; with `detector` they also
/// run a failure detector, and with it the join fallback. Returns the
/// joiner's final status and the (rerouted, stranded) trace counts.
fn mid_join_crash(seed: u64, crash_at: u64, detector: bool) -> (Status, u32, u32) {
    let space = IdSpace::new(4, 6).unwrap();
    let ids = distinct(space, 13, 77);
    let (members, joiner) = (&ids[..12], ids[12]);
    // members[1] = 031220 is the only member with digit(0) == 0, the
    // joiner's (113100) suffix digit — see the doc comment above.
    let gateway = members[1];
    // A short retry budget so exhaustion (and with it the fallback)
    // happens well inside the horizon.
    let mut opts = ProtocolOptions::new().with_retry(RetryPolicy {
        timeout_us: 300_000,
        max_retries: 2,
        ..RetryPolicy::default()
    });
    if detector {
        opts = opts.with_failure_detector(FailureDetector {
            probe_interval_us: 100_000,
            ..FailureDetector::default()
        });
    }
    let mut b = SimNetworkBuilder::new(space);
    b.options(opts);
    for id in members {
        b.add_member(*id);
    }
    b.add_joiner(joiner, gateway, 0);
    let counter = FallbackCounter::default();
    b.trace(Box::new(counter.clone()));
    let mut net = b.build(UniformDelay::new(1_000, 50_000), seed);
    net.inject(crash_at, gateway, NodeInput::Crash);
    net.run_until(20_000_000);
    let (rerouted, stranded) = *counter.0.lock().unwrap();
    (net.engine(&joiner).status(), rerouted, stranded)
}

/// The regression this file exists for: under loss alone (a retry
/// policy, no detector) a joiner whose gateway crashes mid-handshake is
/// stuck in a pre-`in_system` status forever, since exhaustion there
/// means a lost datagram, not a dead peer; with a failure detector the
/// join fallback reroutes it through a contact learned before the crash
/// and it completes the join.
#[test]
fn gateway_crash_mid_join_reroutes_with_fallback() {
    // Seeds where the crash verifiably lands while the gateway is still
    // load-bearing: the no-detector arm strands (pinned below), so the
    // detector arm completing is not vacuous.
    const CRASH_AT: u64 = 60_000;
    let mut rescued = 0;
    for seed in 0..12u64 {
        let (off_status, off_rerouted, _) = mid_join_crash(seed, CRASH_AT, false);
        assert_eq!(
            off_rerouted, 0,
            "seed {seed}: a run without a detector fell back"
        );
        let (on_status, rerouted, stranded) = mid_join_crash(seed, CRASH_AT, true);
        if on_status == Status::InSystem {
            if off_status != Status::InSystem {
                // The interesting case: loss-only strands, the crash
                // model recovers — and says how in the trace.
                rescued += 1;
                assert!(
                    rerouted > 0,
                    "seed {seed}: detector run recovered without tracing a reroute"
                );
            }
        } else {
            // The only legitimate way to stay stuck with the fallback on
            // is the documented dead end: the gateway died before the
            // joiner learned a single live contact, and the trace must
            // say so. Anything else is a silent strand — the regression.
            assert!(
                stranded > 0,
                "seed {seed}: joiner stuck in {on_status:?} with a detector \
                 and no JoinStranded trace"
            );
        }
    }
    assert!(
        rescued >= 3,
        "only {rescued}/12 seeds were rescued by the fallback — the crash no longer lands \
         mid-join; retune the schedule so this regression keeps teeth"
    );
}

/// One row of ROADMAP item 1(a)'s table: a `churn` trial (256 members,
/// b = 4, d = 6) shrunk by ddmin to the members, joins and crash that
/// still fail it. Times are in µs; the trial seed doubles as the
/// simulator seed unless a caller says otherwise.
struct Schedule {
    seed: u64,
    members: &'static [&'static str],
    /// `(joiner, gateway, at)`.
    joins: &'static [(&'static str, &'static str, u64)],
    /// `(victim, at)`.
    crash: (&'static str, u64),
}

const S0: Schedule = Schedule {
    seed: 25,
    members: &["311301", "123032", "113032"],
    joins: &[],
    crash: ("113032", 8_353_717),
};

const S1: Schedule = Schedule {
    seed: 25,
    members: &["311301", "123032", "113032"],
    joins: &[("122032", "311301", 8_222_035)],
    crash: ("113032", 8_353_717),
};

const S2: Schedule = Schedule {
    seed: 19,
    members: &["000201", "131010", "123010", "211110", "022000"],
    joins: &[("100220", "000201", 5_266_693)],
    crash: ("000201", 5_285_550),
};

const S3: Schedule = Schedule {
    seed: 14,
    members: &["101022", "130113", "323231"],
    joins: &[
        ("203231", "101022", 5_685_560),
        ("133231", "130113", 13_840_178),
    ],
    crash: ("323231", 13_881_362),
};

const S3_PRIME: Schedule = Schedule {
    seed: 0,
    members: &["312021", "303221", "311133", "102103"],
    joins: &[
        ("101133", "312021", 2_379_117),
        ("303133", "303221", 7_288_769),
    ],
    crash: ("311133", 7_113_811),
};

fn id(s: &str) -> NodeId {
    IdSpace::new(4, 6).unwrap().parse_id(s).unwrap()
}

/// Runs `s` under `run_poisson_churn`'s detector and retry options with
/// `UniformDelay(1 ms, 50 ms)` and simulator seed `sim_seed`, for the
/// trial's 30 s horizon, over loopback when `socket`. Returns the network
/// and the Definition-3.8 report over the survivors.
fn run_schedule(
    s: &Schedule,
    sim_seed: u64,
    socket: bool,
) -> (SimNetwork<UniformDelay>, ConsistencyReport) {
    let space = IdSpace::new(4, 6).unwrap();
    let hop = Hop::new(space, socket);
    let fd = FailureDetector {
        probe_interval_us: 200_000,
        ..FailureDetector::default()
    };
    let retry = RetryPolicy {
        timeout_us: 300_000,
        max_retries: 2,
        ..RetryPolicy::default()
    };
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    b.options(
        ProtocolOptions::new()
            .with_failure_detector(fd)
            .with_retry(retry),
    );
    for m in s.members {
        b.add_member(id(m));
    }
    for &(joiner, gateway, at) in s.joins {
        b.add_joiner(id(joiner), id(gateway), at);
    }
    let mut net = b.build(UniformDelay::new(1_000, 50_000), sim_seed);
    let (victim, at) = s.crash;
    net.inject(at, id(victim), NodeInput::Crash);
    net.run_until(30_000_000);
    hop.check();
    let survivors: Vec<_> = net
        .tables_iter()
        .filter(|t| t.owner() != id(victim))
        .cloned()
        .collect();
    let report = check_consistency(space, &survivors);
    (net, report)
}

/// The violations of `s` at its trial seed, as the report prints them.
fn endings(s: &Schedule, socket: bool) -> Vec<String> {
    let (_, report) = run_schedule(s, s.seed, socket);
    report.violations().iter().map(|v| v.to_string()).collect()
}

/// ROADMAP item 1's schedule S1: 122032 joins through 311301 while 113032
/// — the only `…032` node the gateway shows it — dies. Returns whether the
/// three survivors end Definition-3.8 consistent.
fn s1(sim_seed: u64, socket: bool) -> Result<(), String> {
    let (net, report) = run_schedule(&S1, sim_seed, socket);
    assert_eq!(net.engine(&id("122032")).status(), Status::InSystem);
    if report.is_consistent() {
        Ok(())
    } else {
        Err(report.to_string())
    }
}

/// S1 as ROADMAP reads it off the trace: the joiner's retries on the dead
/// node run out, the join is rerouted through 311301, whose slot (0, 2)
/// the eviction just emptied, and the joiner is admitted at level 0
/// having never heard of 123032. Its own repair of (3, 3) then installs
/// 123032 and says so with a `RvNghNoti`; 123032 holds (3, 2) empty, the
/// sender fits it, and the fill rule of `on_rvnghnoti` installs it.
/// Without the rule 123032 lacks the entry for good. The message counts
/// of the retry path decide which of the schedule's endings a simulator
/// seed reaches; these five reach this one.
fn s1_admitted_around_the_dead_node(socket: bool) {
    for sim_seed in [8, 36, 82, 83, 160] {
        if let Err(report) = s1(sim_seed, socket) {
            panic!("seed {sim_seed}: {report}");
        }
    }
}

#[test]
fn s1_survivor_learns_the_joiner_admitted_around_the_dead_node() {
    s1_admitted_around_the_dead_node(false);
}

#[test]
fn s1_survivor_learns_the_joiner_admitted_around_the_dead_node_over_loopback() {
    s1_admitted_around_the_dead_node(true);
}

/// The trial's own simulator seed takes the schedule's other ending: every
/// slot the joiner had copied the dead node into is one of its own self
/// slots, so after the reroute it has no slot to repair, sends no
/// `RvNghNoti`, and the two `…032` nodes never hear of each other — a
/// positive `JoinWaitRly` out of a slot that is empty only because its
/// occupant was just evicted (ROADMAP item 1, defect (i)), which the fill
/// rule cannot see.
#[test]
#[ignore = "ROADMAP item 1 defect (i) is open: fails until on_joinwait refuses an evicted slot"]
fn s1_at_the_trial_seed_needs_defect_i_closed() {
    s1(S1.seed, false).unwrap();
}

// ROADMAP item 1(a): the other four schedules, each pinned at its exact
// ending. A live pin fails the day the ending moves, in either direction;
// where a schedule still fails, its ignored twin asserts Definition 3.8
// and is what the fix for item 1 un-ignores. Both sides of a refactor of
// the crash, detector or repair paths must reproduce these to the
// violation.

/// S0: no join at all. 113032 dies and 311301's slot (0, 2) is vacated.
/// No node in 311301's table carries the slot's suffix, but 123032 does
/// and stores 311301, so it is in 311301's reverse set: the repair
/// installs it from there in the evicting tick, without a query. (While
/// the origin asked only the nodes in its table, the slot stayed empty.)
fn s0_ends_consistent_with(socket: bool) {
    assert_eq!(endings(&S0, socket), Vec::<String>::new());
}

#[test]
fn s0_ends_consistent() {
    s0_ends_consistent_with(false);
}

#[test]
fn s0_ends_consistent_over_loopback() {
    s0_ends_consistent_with(true);
}

/// S2: the gateway dies 19 ms into the join, before the joiner learned a
/// single contact. The joiner strands in `Copying` with an empty table and
/// is counted as a survivor: its own eight empty slots plus the four
/// members' `(1, 2)` slots that should hold it.
fn s2_pin(socket: bool) {
    let (net, report) = run_schedule(&S2, S2.seed, socket);
    assert_eq!(net.engine(&id("100220")).status(), Status::Copying);
    assert_eq!(report.violations().len(), 12, "{report}");
}

#[test]
fn s2_joiner_strands_copying_with_twelve_violations() {
    s2_pin(false);
}

#[test]
fn s2_joiner_strands_copying_with_twelve_violations_over_loopback() {
    s2_pin(true);
}

#[test]
#[ignore = "ROADMAP item 1 (d) is open: a stranded joiner counts as a survivor"]
fn s2_ends_consistent() {
    assert_eq!(endings(&S2, false), Vec::<String>::new());
}

/// S3: both joiners reach `in_system` and miss each other at level 4.
fn s3_pin(socket: bool) {
    assert_eq!(
        endings(&S3, socket),
        [
            "false negative: 203231 entry (4,3) empty but 133231 exists",
            "false negative: 133231 entry (4,0) empty but 203231 exists",
        ]
    );
}

#[test]
fn s3_joiners_miss_each_other_at_level_four() {
    s3_pin(false);
}

#[test]
fn s3_joiners_miss_each_other_at_level_four_over_loopback() {
    s3_pin(true);
}

#[test]
#[ignore = "ROADMAP item 1 (b)/(c) are open: joiners admitted around a dead node miss each other"]
fn s3_ends_consistent() {
    assert_eq!(endings(&S3, false), Vec::<String>::new());
}

/// S3′: the crash falls between the two joins. While the repair origin
/// asked only the nodes in its table, the joiners missed each other at
/// level 3 (101133's (3, 3) and 303133's (3, 1)). Now 102103 refills its
/// (1, 3) with 101133 from its reverse set in the tick that evicts
/// 311133, and the schedule ends consistent.
fn s3_prime_ends_consistent_with(socket: bool) {
    assert_eq!(endings(&S3_PRIME, socket), Vec::<String>::new());
}

#[test]
fn s3_prime_ends_consistent() {
    s3_prime_ends_consistent_with(false);
}

#[test]
fn s3_prime_ends_consistent_over_loopback() {
    s3_prime_ends_consistent_with(true);
}
