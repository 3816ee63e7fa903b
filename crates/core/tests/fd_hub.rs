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
