//! White-box tests of every protocol action, figure by figure: each test
//! drives a `JoinEngine` with hand-crafted messages and asserts the exact
//! state transition and outgoing messages the paper's pseudo-code
//! prescribes.

use hyperring_core::{
    build_consistent_tables, Effect, Effects, Entry, FailureDetector, JoinEngine, Message,
    NeighborTable, NodeInput, NodeState, ProtocolOptions, RetryPolicy, Status, TimerId,
};
use hyperring_id::{IdSpace, NodeId};

fn space() -> IdSpace {
    IdSpace::new(4, 4).unwrap()
}

fn id(s: &str) -> NodeId {
    space().parse_id(s).unwrap()
}

fn member(ids: &[&str], who: &str) -> JoinEngine {
    let ids: Vec<NodeId> = ids.iter().map(|s| id(s)).collect();
    let me = id(who);
    let table = build_consistent_tables(space(), &ids)
        .into_iter()
        .find(|t| t.owner() == me)
        .expect("member id present");
    JoinEngine::new_member(space(), ProtocolOptions::new(), table)
}

fn joiner(who: &str) -> JoinEngine {
    JoinEngine::new_joiner(space(), ProtocolOptions::new(), id(who))
}

/// Shorthands for the two inputs fed most, through `JoinEngine::step`.
trait Feed {
    fn deliver(&mut self, from: NodeId, msg: Message, out: &mut Effects);
    fn join_via(&mut self, gateway: NodeId, out: &mut Effects);
}

impl Feed for JoinEngine {
    fn deliver(&mut self, from: NodeId, msg: Message, out: &mut Effects) {
        self.step(NodeInput::Deliver { from, msg }, out);
    }

    fn join_via(&mut self, gateway: NodeId, out: &mut Effects) {
        self.step(NodeInput::StartJoin { gateway }, out);
    }
}

fn sent(out: &mut Effects) -> Vec<(NodeId, Message)> {
    out.drain_sends().collect()
}

/// Delivers every queued message from `from`'s outbox that is addressed to
/// one specific engine, returning the rest.
fn snapshot_of(e: &JoinEngine) -> hyperring_core::TableSnapshot {
    e.table().snapshot()
}

// ---------------------------------------------------------------------
// Figure 5 — status copying
// ---------------------------------------------------------------------

#[test]
fn fig5_copying_walks_levels_and_stops_at_null() {
    // g0 = 0000 in V = {0000, 3210, 1110}; joiner x = 2110.
    // Copy chain: level 0 from 0000 -> N(0, 0) of 0000 ... x[0] = 0, so
    // next = N_g(0, 0) = 0000 itself (self entry) — chain stays at g0?
    // Choose x = 2113 instead: x[0] = 3; 0000's (0,3) entry covers 3210's
    // suffix "3"? 3210 ends in 0. Use V where the chain is interesting.
    let v = ["0000", "3213", "1113"];
    let g0 = member(&v, "0000");
    let mut g0 = g0;
    let mut x = joiner("2113");
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    let msgs = sent(&mut out);
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].0, id("0000"));
    assert!(matches!(msgs[0].1, Message::CpRst { level: 0 }));

    // g0 replies with its full table.
    let mut out = Effects::new();
    g0.deliver(id("2113"), Message::CpRst { level: 0 }, &mut out);
    let msgs = sent(&mut out);
    assert_eq!(msgs.len(), 1);
    let (to, reply) = &msgs[0];
    assert_eq!(*to, id("2113"));
    assert!(matches!(reply, Message::CpRly { level: 0, .. }));

    // x copies level 0; next hop = g0's (0, 3)-neighbor (suffix "3"),
    // which the oracle filled with 1113 (smallest of {3213, 1113}).
    let mut out = Effects::new();
    x.deliver(id("0000"), reply.clone(), &mut out);
    assert_eq!(x.status(), Status::Copying);
    let msgs = sent(&mut out);
    // x copied entries -> RvNghNoti to each copied neighbor, plus the next
    // CpRst to 1113 at level 1.
    let cprsts: Vec<_> = msgs
        .iter()
        .filter(|(_, m)| matches!(m, Message::CpRst { .. }))
        .collect();
    assert_eq!(cprsts.len(), 1);
    assert_eq!(cprsts[0].0, id("1113"));
    assert!(matches!(cprsts[0].1, Message::CpRst { level: 1 }));
    assert!(msgs
        .iter()
        .any(|(_, m)| matches!(m, Message::RvNghNoti { .. })));
}

#[test]
fn fig5_copying_enters_waiting_when_no_deeper_node() {
    // V = {0000}: the chain ends immediately for any joiner whose last
    // digit differs; x waits on g0 itself (g = null case).
    let mut g0 = member(&["0000"], "0000");
    let mut x = joiner("3213");
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    let (_, cprst) = sent(&mut out).pop().unwrap();
    let mut out = Effects::new();
    g0.deliver(id("3213"), cprst, &mut out);
    let (_, cprly) = sent(&mut out).pop().unwrap();

    let mut out = Effects::new();
    x.deliver(id("0000"), cprly, &mut out);
    assert_eq!(x.status(), Status::Waiting);
    // Self entries are installed on the transition (Figure 5's last loop).
    for i in 0..4 {
        let e = x.table().get(i, id("3213").digit(i)).unwrap();
        assert_eq!(e.node, id("3213"));
        assert_eq!(e.state, NodeState::T);
    }
    let msgs = sent(&mut out);
    let joinwaits: Vec<_> = msgs
        .iter()
        .filter(|(_, m)| matches!(m, Message::JoinWait))
        .collect();
    assert_eq!(joinwaits.len(), 1);
    assert_eq!(joinwaits[0].0, id("0000"));
}

#[test]
fn fig5_copying_waits_on_t_node() {
    // x copies a level whose (i, x[i]) entry records a T-node: x must send
    // the JoinWaitMsg to that T-node (the "g_{k+1} is still a T-node"
    // branch), not continue copying from it.
    let mut x = joiner("3213");
    // Hand-craft a reply from a fake g0 whose (0,3) entry is a T-state
    // node 1113.
    let mut g0_table = NeighborTable::new(space(), id("0000"));
    g0_table.set_self_entries(NodeState::S);
    g0_table.set(
        0,
        3,
        Entry {
            node: id("1113"),
            state: NodeState::T,
        },
    );
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    out.drain_sends().count();
    let mut out = Effects::new();
    x.deliver(
        id("0000"),
        Message::CpRly {
            level: 0,
            table: g0_table.snapshot(),
        },
        &mut out,
    );
    assert_eq!(x.status(), Status::Waiting);
    let msgs = sent(&mut out);
    let (to, _) = msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::JoinWait))
        .expect("JoinWaitMsg sent");
    assert_eq!(*to, id("1113"), "must wait on the T-node, not copy from it");
}

// ---------------------------------------------------------------------
// Figure 6 — receiving JoinWaitMsg
// ---------------------------------------------------------------------

#[test]
fn fig6_s_node_with_empty_entry_replies_positive_and_stores() {
    let mut y = member(&["0000", "1110"], "0000");
    let x = id("3213");
    let mut out = Effects::new();
    y.deliver(x, Message::JoinWait, &mut out);
    // k = |csuf(0000, 3213)| = 0; entry (0, 3) was empty.
    let e = y.table().get(0, 3).unwrap();
    assert_eq!(e.node, x);
    assert_eq!(e.state, NodeState::T);
    let msgs = sent(&mut out);
    assert_eq!(msgs.len(), 1);
    match &msgs[0].1 {
        Message::JoinWaitRly { positive, next, .. } => {
            assert!(*positive);
            assert_eq!(*next, x);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn fig6_s_node_with_occupied_entry_replies_negative_with_occupant() {
    let mut y = member(&["0000", "1113"], "0000");
    // (0, 3) already holds 1113; joiner 3213 must be redirected there.
    let mut out = Effects::new();
    y.deliver(id("3213"), Message::JoinWait, &mut out);
    let msgs = sent(&mut out);
    match &msgs[0].1 {
        Message::JoinWaitRly { positive, next, .. } => {
            assert!(!*positive);
            assert_eq!(*next, id("1113"));
        }
        other => panic!("unexpected {other:?}"),
    }
    // The entry is untouched.
    assert_eq!(y.table().get(0, 3).unwrap().node, id("1113"));
}

#[test]
fn fig6_t_node_queues_the_request_until_switching() {
    // A joiner in waiting status receives JoinWaitMsg: no reply now (Q_j).
    let mut x = joiner("3213");
    let mut g0 = member(&["0000"], "0000");
    // Drive x into waiting via the usual exchange.
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    let (_, m) = sent(&mut out).pop().unwrap();
    let mut out = Effects::new();
    g0.deliver(id("3213"), m, &mut out);
    let (_, m) = sent(&mut out).pop().unwrap();
    let mut out = Effects::new();
    x.deliver(id("0000"), m, &mut out);
    out.drain_sends().count();
    assert_eq!(x.status(), Status::Waiting);

    // Another joiner asks x to store it: silence.
    let mut out = Effects::new();
    x.deliver(id("1113"), Message::JoinWait, &mut out);
    assert!(out.is_empty(), "T-node must delay its JoinWaitRlyMsg");

    // Now let x's own join finish: g0 replies positive; x has nobody to
    // notify, switches, and must answer the queued joiner (Figure 13).
    let mut out = Effects::new();
    g0.deliver(id("3213"), Message::JoinWait, &mut out);
    let (_, rly) = sent(&mut out)
        .into_iter()
        .find(|(_, m)| matches!(m, Message::JoinWaitRly { .. }))
        .unwrap();
    let mut out = Effects::new();
    x.deliver(id("0000"), rly, &mut out);
    assert_eq!(x.status(), Status::InSystem);
    let msgs = sent(&mut out);
    let queued_reply = msgs
        .iter()
        .find(|(to, m)| *to == id("1113") && matches!(m, Message::JoinWaitRly { .. }))
        .expect("queued joiner must get a reply on switch");
    match &queued_reply.1 {
        Message::JoinWaitRly { positive, .. } => assert!(*positive),
        _ => unreachable!(),
    }
    // And x stored the queued joiner: csuf(3213, 1113) = 2 ⇒ entry (2, 1).
    assert_eq!(x.table().get(2, 1).unwrap().node, id("1113"));
}

// ---------------------------------------------------------------------
// Figures 7 + 8 — JoinWaitRlyMsg and Check_Ngh_Table
// ---------------------------------------------------------------------

#[test]
fn fig7_negative_reply_extends_the_wait_chain() {
    let mut x = joiner("3213");
    let mut g0 = member(&["0000"], "0000");
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    let (_, m) = sent(&mut out).pop().unwrap();
    let mut out = Effects::new();
    g0.deliver(id("3213"), m, &mut out);
    let (_, m) = sent(&mut out).pop().unwrap();
    let mut out = Effects::new();
    x.deliver(id("0000"), m, &mut out);
    out.drain_sends().count();

    // Craft a negative reply pointing at 1113.
    let mut holder = NeighborTable::new(space(), id("0000"));
    holder.set_self_entries(NodeState::S);
    let mut out = Effects::new();
    x.deliver(
        id("0000"),
        Message::JoinWaitRly {
            positive: false,
            next: id("1113"),
            table: holder.snapshot(),
        },
        &mut out,
    );
    assert_eq!(x.status(), Status::Waiting, "still waiting after negative");
    let msgs = sent(&mut out);
    let (to, _) = msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::JoinWait))
        .expect("chained JoinWaitMsg");
    assert_eq!(*to, id("1113"));
}

#[test]
fn fig7_positive_reply_sets_noti_level_and_fig8_notifies() {
    let mut x = joiner("3213");
    let g = member(&["0000"], "0000");
    // Pretend the chain ran; deliver a positive reply from a member whose
    // table contains another node sharing >= noti_level digits with x.
    let mut gt = NeighborTable::new(space(), id("0000"));
    gt.set_self_entries(NodeState::S);
    gt.set(
        0,
        3,
        Entry {
            node: id("1113"), // shares suffix "3" with x (k = 1... csuf(3213,1113)=2)
            state: NodeState::S,
        },
    );
    drop(g);
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    out.drain_sends().count();
    // Skip the copy: deliver CpRly with an empty-ish table to reach waiting.
    let mut out = Effects::new();
    x.deliver(
        id("0000"),
        Message::CpRly {
            level: 0,
            table: NeighborTable::new(space(), id("0000")).snapshot(),
        },
        &mut out,
    );
    out.drain_sends().count();
    assert_eq!(x.status(), Status::Waiting);

    let mut out = Effects::new();
    x.deliver(
        id("0000"),
        Message::JoinWaitRly {
            positive: true,
            next: id("3213"),
            table: gt.snapshot(),
        },
        &mut out,
    );
    // noti_level = |csuf(3213, 0000)| = 0.
    assert_eq!(x.noti_level(), 0);
    // Check_Ngh_Table saw 1113 (csuf 2 >= 0, not yet notified): JoinNoti.
    let msgs = sent(&mut out);
    let notis: Vec<_> = msgs
        .iter()
        .filter(|(_, m)| matches!(m, Message::JoinNoti { .. }))
        .collect();
    assert_eq!(notis.len(), 1);
    assert_eq!(notis[0].0, id("1113"));
    // x filled its (2, 1) entry with 1113 and is now notifying.
    assert_eq!(x.status(), Status::Notifying);
    assert_eq!(x.table().get(2, 1).unwrap().node, id("1113"));
}

// ---------------------------------------------------------------------
// Figures 9 + 10 — JoinNotiMsg / JoinNotiRlyMsg and the f-flag
// ---------------------------------------------------------------------

#[test]
fn fig9_s_node_sets_flag_when_notifier_stored_someone_else() {
    // y (S-node 1113) receives JoinNoti from x (3213) whose table maps
    // y's slot (k=2, digit y[2]=1) to a *different* node 2113: f = true.
    let mut y = member(&["1113", "0000"], "1113");
    let mut xt = NeighborTable::new(space(), id("3213"));
    xt.set_self_entries(NodeState::T);
    xt.set(
        2,
        1,
        Entry {
            node: id("2113"),
            state: NodeState::T,
        },
    );
    let mut out = Effects::new();
    y.deliver(
        id("3213"),
        Message::JoinNoti {
            table: xt.snapshot(),
            filled_bits: None,
        },
        &mut out,
    );
    let msgs = sent(&mut out);
    let rly = msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::JoinNotiRly { .. }))
        .unwrap();
    match &rly.1 {
        Message::JoinNotiRly { positive, flag, .. } => {
            assert!(*positive, "y stored x (entry was empty)");
            assert!(*flag, "f must be set: x's table held 2113, not y");
        }
        _ => unreachable!(),
    }
    // y stores x at (k = 2, x[2] = 2).
    assert_eq!(y.table().get(2, 2).unwrap().node, id("3213"));
}

#[test]
fn fig10_flag_triggers_spenoti_toward_the_occupant() {
    // x in notifying with noti_level 0 has entry (2,1) = 2113; a flagged
    // reply from 1113 (k = 2 > 0) must trigger SpeNoti(x, 1113) to 2113.
    let mut x = joiner("3213");
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    out.drain_sends().count();
    let mut out = Effects::new();
    x.deliver(
        id("0000"),
        Message::CpRly {
            level: 0,
            table: NeighborTable::new(space(), id("0000")).snapshot(),
        },
        &mut out,
    );
    out.drain_sends().count();
    // Positive wait-reply whose table contains 2113, so x fills (2,1).
    let mut gt = NeighborTable::new(space(), id("0000"));
    gt.set_self_entries(NodeState::S);
    gt.set(
        0,
        3,
        Entry {
            node: id("2113"),
            state: NodeState::S,
        },
    );
    let mut out = Effects::new();
    x.deliver(
        id("0000"),
        Message::JoinWaitRly {
            positive: true,
            next: id("3213"),
            table: gt.snapshot(),
        },
        &mut out,
    );
    out.drain_sends().count();
    assert_eq!(x.status(), Status::Notifying);
    assert_eq!(x.table().get(2, 1).unwrap().node, id("2113"));

    // Flagged JoinNotiRly from 1113.
    let mut yt = NeighborTable::new(space(), id("1113"));
    yt.set_self_entries(NodeState::S);
    let mut out = Effects::new();
    x.deliver(
        id("1113"),
        Message::JoinNotiRly {
            positive: true,
            table: yt.snapshot(),
            flag: true,
        },
        &mut out,
    );
    let msgs = sent(&mut out);
    let spe = msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::SpeNoti { .. }))
        .expect("SpeNotiMsg must be sent");
    assert_eq!(spe.0, id("2113"), "sent to the slot's occupant");
    match &spe.1 {
        Message::SpeNoti { initiator, subject } => {
            assert_eq!(*initiator, id("3213"));
            assert_eq!(*subject, id("1113"));
        }
        _ => unreachable!(),
    }
    // x must not switch while the SpeNoti is outstanding (Q_sr nonempty).
    assert_eq!(x.status(), Status::Notifying);

    // 2113's own JoinNotiRly drains Q_r, but Q_sr still holds 1113.
    let mut zt = NeighborTable::new(space(), id("2113"));
    zt.set_self_entries(NodeState::S);
    x.deliver(
        id("2113"),
        Message::JoinNotiRly {
            positive: true,
            table: zt.snapshot(),
            flag: false,
        },
        &mut Effects::new(),
    );
    assert_eq!(x.status(), Status::Notifying, "Q_sr still outstanding");

    // The flagged reply's Check_Ngh_Table also made x notify 1113 itself
    // (it appeared in the reply table); answer that too.
    let mut yt2 = NeighborTable::new(space(), id("1113"));
    yt2.set_self_entries(NodeState::S);
    x.deliver(
        id("1113"),
        Message::JoinNotiRly {
            positive: true,
            table: yt2.snapshot(),
            flag: false,
        },
        &mut Effects::new(),
    );
    assert_eq!(x.status(), Status::Notifying, "Q_sr still outstanding");

    // The SpeNotiRly releases it.
    let mut out = Effects::new();
    x.deliver(
        id("2113"),
        Message::SpeNotiRly {
            subject: id("1113"),
        },
        &mut out,
    );
    assert_eq!(x.status(), Status::InSystem);
}

// ---------------------------------------------------------------------
// Figure 11 — SpeNotiMsg forwarding
// ---------------------------------------------------------------------

#[test]
fn fig11_receiver_stores_subject_or_forwards() {
    // u = 2113 with empty (3, 1): stores subject 1113 (state S) and
    // replies to the initiator.
    let mut u = member(&["2113", "0000"], "2113");
    let mut out = Effects::new();
    u.deliver(
        id("0000"), // transport sender is irrelevant
        Message::SpeNoti {
            initiator: id("3213"),
            subject: id("1113"),
        },
        &mut out,
    );
    // csuf(2113, 1113) = 3; subject digit(3) = 1 ⇒ entry (3, 1).
    let e = u.table().get(3, 1).unwrap();
    assert_eq!(e.node, id("1113"));
    assert_eq!(e.state, NodeState::S);
    let msgs = sent(&mut out);
    let rly = msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::SpeNotiRly { .. }))
        .expect("reply to initiator");
    assert_eq!(rly.0, id("3213"));

    // Occupied-slot case: u's (2, 0) entry (desired suffix "013") holds
    // member 3013; a SpeNoti about subject 0013 (csuf(2113, 0013) = 2,
    // digit 0) must be *forwarded* to the occupant, not answered.
    let mut u2 = member(&["2113", "0000", "3013"], "2113");
    assert_eq!(u2.table().get(2, 0).unwrap().node, id("3013"));
    let mut out = Effects::new();
    u2.deliver(
        id("0000"),
        Message::SpeNoti {
            initiator: id("3213"),
            subject: id("0013"),
        },
        &mut out,
    );
    let msgs = sent(&mut out);
    assert!(
        !msgs
            .iter()
            .any(|(_, m)| matches!(m, Message::SpeNotiRly { .. })),
        "must not reply while the slot holds another node"
    );
    let fwd = msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::SpeNoti { .. }))
        .expect("forwarded SpeNoti");
    assert_eq!(fwd.0, id("3013"));
    match &fwd.1 {
        Message::SpeNoti { initiator, subject } => {
            assert_eq!(*initiator, id("3213"));
            assert_eq!(*subject, id("0013"));
        }
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------------
// Figure 14 + RvNghNoti — state upgrades
// ---------------------------------------------------------------------

#[test]
fn fig14_insysnoti_upgrades_t_to_s() {
    let mut y = member(&["0000"], "0000");
    // Store a T-state neighbor by receiving its JoinWait.
    y.deliver(id("3213"), Message::JoinWait, &mut Effects::new());
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::T);
    y.deliver(id("3213"), Message::InSysNoti, &mut Effects::new());
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::S);
}

#[test]
fn rvnghnoti_mismatch_gets_corrected() {
    // An S-node member receives RvNghNoti recording it as T: it must
    // immediately reply with its actual state S.
    let mut y = member(&["0000"], "0000");
    let mut out = Effects::new();
    y.deliver(
        id("3213"),
        Message::RvNghNoti {
            recorded: NodeState::T,
        },
        &mut out,
    );
    let msgs = sent(&mut out);
    assert_eq!(msgs.len(), 1);
    match &msgs[0].1 {
        Message::RvNghNotiRly { actual } => assert_eq!(*actual, NodeState::S),
        other => panic!("unexpected {other:?}"),
    }
    // Consistent recording: silence.
    let mut out = Effects::new();
    y.deliver(
        id("1110"),
        Message::RvNghNoti {
            recorded: NodeState::S,
        },
        &mut out,
    );
    assert!(out.is_empty());
    // And the reverse-neighbor set now holds both senders.
    let rv = y.table().reverse_neighbors();
    assert!(rv.contains(&id("3213")));
    assert!(rv.contains(&id("1110")));
}

#[test]
fn rvnghnotirly_updates_recorded_state() {
    let mut x = joiner("3213");
    // Seed x's table with a stale T-state record of 0001 at slot (0, 1)
    // through a crafted CpRly. (0, 1) is not one of x's self slots, so it
    // survives the transition to waiting.
    let mut gt = NeighborTable::new(space(), id("0000"));
    gt.set_self_entries(NodeState::S);
    gt.set(
        0,
        1,
        Entry {
            node: id("0001"),
            state: NodeState::T,
        },
    );
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    out.drain_sends().count();
    x.deliver(
        id("0000"),
        Message::CpRly {
            level: 0,
            table: gt.snapshot(),
        },
        &mut Effects::new(),
    );
    // next = gt(0, 3) is empty, so x entered waiting; the copied record
    // remains, still marked T.
    assert_eq!(x.status(), Status::Waiting);
    let before = x.table().get(0, 1).unwrap();
    assert_eq!(before.node, id("0001"));
    assert_eq!(before.state, NodeState::T);

    // 0001's corrective RvNghNotiRly (it is actually an S-node) upgrades
    // the record: csuf(3213, 0001) = 0 targets slot (0, 0001[0]) = (0, 1).
    x.deliver(
        id("0001"),
        Message::RvNghNotiRly {
            actual: NodeState::S,
        },
        &mut Effects::new(),
    );
    assert_eq!(x.table().get(0, 1).unwrap().state, NodeState::S);
    let _ = snapshot_of(&x);
}

// ---------------------------------------------------------------------
// Acknowledged retransmission of RvNghNoti / InSysNoti (lossy-transport
// extension) and the crash-churn fill rule
// ---------------------------------------------------------------------

fn retrying() -> ProtocolOptions {
    ProtocolOptions::new().with_retry(RetryPolicy::default())
}

/// A one-node network `who` under `opts`.
fn seed_with(who: &str, opts: ProtocolOptions) -> JoinEngine {
    JoinEngine::new_seed(space(), opts, id(who))
}

/// A joiner 3213 under a retry policy that has copied level 0 from 0000
/// — installing 0001 at (0, 1) — and now waits on 0000.
fn joiner_storing_0001() -> JoinEngine {
    let mut x = JoinEngine::new_joiner(space(), retrying(), id("3213"));
    let mut gt = NeighborTable::new(space(), id("0000"));
    gt.set_self_entries(NodeState::S);
    gt.set(
        0,
        1,
        Entry {
            node: id("0001"),
            state: NodeState::S,
        },
    );
    x.join_via(id("0000"), &mut Effects::new());
    let table = gt.snapshot();
    x.deliver(
        id("0000"),
        Message::CpRly { level: 0, table },
        &mut Effects::new(),
    );
    assert_eq!(x.status(), Status::Waiting);
    x
}

fn rv_ngh(peer: &str) -> TimerId {
    TimerId::RvNgh { peer: id(peer) }
}

#[test]
fn lost_rvnghnoti_is_retransmitted_acknowledged_and_its_timer_cancelled() {
    let mut x = joiner_storing_0001();
    let mut y = seed_with("0001", retrying());
    // The first RvNghNoti to 0001 is lost; only its timer is left.
    assert!(x.live_timers().any(|t| t == rv_ngh("0001")));
    let mut out = Effects::new();
    x.step(NodeInput::TimerFired(rv_ngh("0001")), &mut out);
    let fx: Vec<Effect> = out.drain().collect();
    assert!(
        fx.iter()
            .any(|f| matches!(f, Effect::SetTimer { id, .. } if *id == rv_ngh("0001"))),
        "the retransmission re-arms its timer"
    );
    let resent: Vec<_> = fx
        .into_iter()
        .filter_map(|f| match f {
            Effect::Send { to, msg } => Some((to, msg)),
            _ => None,
        })
        .collect();
    assert_eq!(resent.len(), 1);
    assert_eq!(resent[0].0, id("0001"));
    assert!(matches!(
        resent[0].1,
        Message::RvNghNoti {
            recorded: NodeState::S
        }
    ));
    // 0001 records the reverse neighbor and acknowledges although the
    // recorded state is right.
    let mut out = Effects::new();
    y.deliver(id("3213"), resent[0].1.clone(), &mut out);
    assert!(y.table().reverse_neighbors().contains(&id("3213")));
    let (to, ack) = sent(&mut out).pop().expect("an acknowledgement");
    assert_eq!(to, id("3213"));
    assert!(matches!(
        ack,
        Message::RvNghNotiRly {
            actual: NodeState::S
        }
    ));
    // The acknowledgement cancels the timer; a stale fire sends nothing.
    let mut out = Effects::new();
    x.deliver(id("0001"), ack, &mut out);
    assert!(out
        .drain()
        .any(|f| matches!(f, Effect::CancelTimer { id } if id == rv_ngh("0001"))));
    assert!(!x.live_timers().any(|t| t == rv_ngh("0001")));
    let mut out = Effects::new();
    x.step(NodeInput::TimerFired(rv_ngh("0001")), &mut out);
    assert!(out.is_empty());
}

#[test]
fn duplicate_rvnghnoti_after_a_lost_ack_is_idempotent() {
    // Detector on, so the first delivery also exercises the fill rule: the
    // duplicate must not install twice.
    let mut y = seed_with(
        "0000",
        retrying().with_failure_detector(FailureDetector::default()),
    );
    let noti = Message::RvNghNoti {
        recorded: NodeState::S,
    };
    let mut out = Effects::new();
    y.deliver(id("3213"), noti.clone(), &mut out);
    let first = sent(&mut out);
    let reverse = y.table().reverse_neighbors();
    let filled = y.table().filled();
    // The ack is lost, 3213 retransmits.
    let mut out = Effects::new();
    y.deliver(id("3213"), noti, &mut out);
    let second = sent(&mut out);
    assert_eq!(y.table().reverse_neighbors(), reverse);
    assert_eq!(y.table().filled(), filled);
    assert_eq!(second.len(), 1, "one more ack and nothing else");
    assert!(matches!(second[0].1, Message::RvNghNotiRly { .. }));
    assert!(
        first.len() > second.len(),
        "only the first delivery installs"
    );
}

#[test]
fn lost_insysnoti_is_retransmitted_and_acknowledged_with_a_pong() {
    // 0000 stores joiner 3213 as T; 3213 joins through it and the
    // InSysNoti announcing the switch is lost.
    let mut y = seed_with("0000", retrying());
    let mut x = JoinEngine::new_joiner(space(), retrying(), id("3213"));
    let mut out = Effects::new();
    x.join_via(id("0000"), &mut out);
    let mut queue: Vec<(NodeId, NodeId, Message)> = out
        .drain_sends()
        .map(|(to, m)| (id("3213"), to, m))
        .collect();
    let mut lost = 0;
    while let Some((from, to, msg)) = queue.pop() {
        if matches!(msg, Message::InSysNoti) {
            lost += 1;
            continue;
        }
        let node = if to == id("0000") { &mut y } else { &mut x };
        let mut out = Effects::new();
        node.deliver(from, msg, &mut out);
        queue.extend(out.drain_sends().map(|(t, m)| (to, t, m)));
    }
    assert_eq!(lost, 1);
    assert_eq!(x.status(), Status::InSystem);
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::T);
    let in_sys = TimerId::InSys { peer: id("0000") };
    assert_eq!(x.live_timers().collect::<Vec<_>>(), [in_sys]);

    let mut out = Effects::new();
    x.step(NodeInput::TimerFired(in_sys), &mut out);
    let (to, again) = sent(&mut out).pop().expect("a retransmission");
    assert_eq!(to, id("0000"));
    assert!(matches!(again, Message::InSysNoti));
    let mut out = Effects::new();
    y.deliver(id("3213"), again, &mut out);
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::S);
    let (to, ack) = sent(&mut out).pop().expect("an acknowledgement");
    assert_eq!(to, id("3213"));
    assert!(matches!(ack, Message::Pong));
    let mut out = Effects::new();
    x.deliver(id("0000"), ack, &mut out);
    assert!(out
        .drain()
        .any(|f| matches!(f, Effect::CancelTimer { id } if id == in_sys)));
    assert_eq!(x.live_timers().count(), 0);
}

#[test]
fn a_ping_counts_as_the_insysnoti_so_every_pong_is_a_sound_ack() {
    // Only S-nodes probe. Were a Ping answered without the flip, the Pong
    // would cancel the prober's InSys timer while the InSysNoti it guards
    // is still lost.
    let mut y = seed_with("0000", retrying());
    y.deliver(id("3213"), Message::JoinWait, &mut Effects::new());
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::T);
    let mut out = Effects::new();
    y.deliver(id("3213"), Message::Ping, &mut out);
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::S);
    let msgs = sent(&mut out);
    assert_eq!(msgs.len(), 1);
    assert!(matches!(msgs[0].1, Message::Pong));
    // Without a retry policy nothing waits on a Pong: the paper's table
    // stays as it was.
    let mut y = member(&["0000"], "0000");
    y.deliver(id("3213"), Message::JoinWait, &mut Effects::new());
    y.deliver(id("3213"), Message::Ping, &mut Effects::new());
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::T);
}

#[test]
fn stale_rvnghnotirly_t_never_downgrades_s() {
    let mut x = joiner_storing_0001();
    assert_eq!(x.table().get(0, 1).unwrap().state, NodeState::S);
    // A duplicate of an acknowledgement 0001 sent while it was a T-node.
    let mut out = Effects::new();
    x.deliver(
        id("0001"),
        Message::RvNghNotiRly {
            actual: NodeState::T,
        },
        &mut out,
    );
    assert_eq!(x.table().get(0, 1).unwrap().state, NodeState::S);
    // It still acknowledges delivery.
    assert!(!x.live_timers().any(|t| t == rv_ngh("0001")));
}

#[test]
fn fill_rule_installs_the_sender_into_an_empty_slot_only_with_a_detector() {
    let noti = Message::RvNghNoti {
        recorded: NodeState::S,
    };
    // Detector on: 0000 holds (0, 3) empty and 3213 fits it.
    let mut y = seed_with(
        "0000",
        ProtocolOptions::new().with_failure_detector(FailureDetector::default()),
    );
    let mut out = Effects::new();
    y.deliver(id("3213"), noti.clone(), &mut out);
    let e = y.table().get(0, 3).expect("the sender was installed");
    assert_eq!(e.node, id("3213"));
    assert_eq!(e.state, NodeState::T);
    let msgs = sent(&mut out);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert_eq!(msgs[0].0, id("3213"));
    assert!(matches!(
        msgs[0].1,
        Message::RvNghNoti {
            recorded: NodeState::T
        }
    ));
    // The ordinary round corrects the recorded state.
    y.deliver(
        id("3213"),
        Message::RvNghNotiRly {
            actual: NodeState::S,
        },
        &mut Effects::new(),
    );
    assert_eq!(y.table().get(0, 3).unwrap().state, NodeState::S);
    // An occupied slot is left alone.
    let mut out = Effects::new();
    y.deliver(id("1113"), noti.clone(), &mut out);
    assert_eq!(y.table().get(0, 3).unwrap().node, id("3213"));
    assert!(out.is_empty());
    // A T-node does not fill: its join is still constructing the table.
    let mut t = JoinEngine::new_joiner(
        space(),
        ProtocolOptions::new().with_failure_detector(FailureDetector::default()),
        id("2221"),
    );
    t.deliver(id("3213"), noti.clone(), &mut Effects::new());
    assert!(t.table().get(0, 3).is_none());

    // Detector off: the paper's handler, effect for effect.
    let mut y = member(&["0000"], "0000");
    let mut out = Effects::new();
    y.deliver(id("3213"), noti, &mut out);
    assert!(out.is_empty());
    assert!(y.table().get(0, 3).is_none());
    assert!(y.table().reverse_neighbors().contains(&id("3213")));
}
