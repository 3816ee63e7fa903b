//! A much-referenced node's detector tick, at the engine boundary.
//!
//! The level-0 representatives of a network hold Θ(n) reverse neighbors,
//! many of them in several reverse sets and some in a slot as well. The
//! detector reads them through the table's peer view, and the order it
//! sends `Ping`s in feeds the delay RNG of every runtime — so the contract
//! is exact: one `Ping` per distinct peer per tick, ascending by id.

use hyperring_core::{
    Effects, Entry, FailureDetector, JoinEngine, Message, NeighborTable, NodeInput, NodeState,
    ProtocolOptions, TimerId,
};
use hyperring_id::{IdSpace, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn hub_pings_each_distinct_peer_once_per_tick_ascending() {
    let space = IdSpace::new(16, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(24);
    let me = space.random_id(&mut rng);
    let mut peers = std::collections::BTreeSet::new();
    while peers.len() < 320 {
        peers.insert(space.random_id(&mut rng));
    }
    peers.remove(&me);
    let mut table = NeighborTable::new(space, me);
    table.set_self_entries(NodeState::S);
    for (i, peer) in peers.iter().enumerate() {
        // Everyone in one reverse set, every third in a second one, every
        // fifth stored in the slot it fits as well; and the owner itself.
        table.add_reverse(0, me.digit(0), *peer);
        if i % 3 == 0 {
            table.add_reverse(1, me.digit(1), *peer);
        }
        if i % 5 == 0 {
            let k = me.csuf_len(peer);
            let state = NodeState::S;
            table.set(k, peer.digit(k), Entry { node: *peer, state });
        }
    }
    table.add_reverse(0, me.digit(0), me);
    let want: Vec<NodeId> = peers.iter().copied().collect();
    assert!(want.len() >= 300);

    let opts = ProtocolOptions::new().with_failure_detector(FailureDetector::default());
    let mut hub = JoinEngine::new_member(space, opts, table);
    let mut out = Effects::new();
    hub.step(NodeInput::StartFailureDetector, &mut out);
    out.drain().for_each(drop);
    for tick in 0..5 {
        let id = TimerId::FdProbe { owner: me };
        hub.step(NodeInput::TimerFired(id), &mut out);
        let pinged: Vec<NodeId> = out
            .drain_sends()
            .map(|(to, msg)| {
                assert!(matches!(msg, Message::Ping), "tick {tick} sent {msg:?}");
                to
            })
            .collect();
        assert_eq!(pinged, want, "tick {tick}");
        for &from in &want {
            let msg = Message::Pong;
            hub.step(NodeInput::Deliver { from, msg }, &mut out);
        }
    }
}

/// A detector paces repair: when six neighbors go silent together and
/// their six slots are vacated in one tick, that tick queries the first
/// four slots (in slot order) and the next tick the other two, under
/// `FailureDetector::default()`.
#[test]
fn a_tick_that_vacates_six_slots_queries_four() {
    let space = IdSpace::new(4, 4).unwrap();
    let id = |s: &str| space.parse_id(s).unwrap();
    let me = id("0000");
    // (0, 1) (0, 2) (0, 3) (1, 1) (1, 2) (1, 3), none storing 0000, so
    // no slot refills from the reverse set; 0100 at (2, 1) answers and
    // receives the queries.
    let silent = ["0001", "0002", "0003", "0010", "0020", "0030"];
    let live = id("0100");
    let mut table = NeighborTable::new(space, me);
    table.set_self_entries(NodeState::S);
    for node in silent.iter().map(|s| id(s)).chain([live]) {
        let k = me.csuf_len(&node);
        let state = NodeState::S;
        table.set(k, node.digit(k), Entry { node, state });
    }
    let opts = ProtocolOptions::new().with_failure_detector(FailureDetector::default());
    let mut x = JoinEngine::new_member(space, opts, table);
    let mut out = Effects::new();
    x.step(NodeInput::StartFailureDetector, &mut out);
    out.drain().for_each(drop);
    let tick = TimerId::FdProbe { owner: me };
    let mut queried_per_tick = Vec::new();
    let mut vacated_at_first_query = None;
    for _ in 0..8 {
        x.step(NodeInput::TimerFired(tick), &mut out);
        let mut slots = Vec::new();
        for (to, msg) in out.drain_sends() {
            if let Message::RepairQry { level, digit, .. } = msg {
                assert_eq!(to, live);
                if !slots.contains(&(level, digit)) {
                    slots.push((level, digit));
                }
            }
        }
        if !slots.is_empty() && vacated_at_first_query.is_none() {
            let vacated = (0..2)
                .flat_map(|level| (1..4).map(move |digit| (level, digit)))
                .filter(|&(level, digit)| x.table().is_vacated(level, digit))
                .count();
            vacated_at_first_query = Some(vacated);
        }
        queried_per_tick.push(slots);
        let msg = Message::Pong;
        x.step(NodeInput::Deliver { from: live, msg }, &mut out);
        out.drain().for_each(drop);
    }
    assert_eq!(vacated_at_first_query, Some(6), "six slots vacate at once");
    queried_per_tick.retain(|s| !s.is_empty());
    let queried = queried_per_tick;
    assert_eq!(queried[0], [(0, 1), (0, 2), (0, 3), (1, 1)]);
    assert_eq!(queried[1], [(1, 2), (1, 3)]);
}
