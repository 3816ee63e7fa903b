//! Tests of the graceful-leave extension: after a leave, the network of
//! remaining nodes must again satisfy Definition 3.8 (with `V' = V \ {x}`),
//! and joins must keep working afterwards. Each test also runs
//! `*_over_loopback`, with every message sent through the wire codec and a
//! real loopback socket ([`common::Hop`]).

mod common;

use common::Hop;
use hyperring_core::{NodeInput, SimNetwork, SimNetworkBuilder, Status};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{DelayModel, UniformDelay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn distinct_ids(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert(space.random_id(&mut rng));
    }
    set.into_iter().collect()
}

/// A sequential leave: `id` leaves now and the network runs to
/// quiescence.
fn depart<D: DelayModel>(net: &mut SimNetwork<D>, id: NodeId) {
    net.inject(net.now(), id, NodeInput::BeginLeave);
    net.run();
    assert_eq!(
        net.engine(&id).status(),
        Status::Departed,
        "{id} failed to depart"
    );
}

fn single_leave(socket: bool) {
    let space = IdSpace::new(8, 4).unwrap();
    let ids = distinct_ids(space, 24, 3);
    for victim in [1usize, 7, 23] {
        let hop = Hop::new(space, socket);
        let mut b = SimNetworkBuilder::new(space);
        hop.attach(&mut b);
        for id in &ids {
            b.add_member(*id);
        }
        let mut net = b.build(UniformDelay::new(1_000, 50_000), 5);
        net.run();
        depart(&mut net, ids[victim]);
        hop.check();
        assert_eq!(net.engine(&ids[victim]).status(), Status::Departed);
        let c = net.check_consistency();
        assert!(c.is_consistent(), "victim {}: {c}", ids[victim]);
        assert_eq!(c.nodes(), 23);
    }
}

#[test]
fn single_leave_keeps_consistency() {
    single_leave(false);
}

#[test]
fn single_leave_keeps_consistency_over_loopback() {
    single_leave(true);
}

fn sequential_leaves(socket: bool) {
    let space = IdSpace::new(4, 5).unwrap();
    let ids = distinct_ids(space, 16, 9);
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    for id in &ids {
        b.add_member(*id);
    }
    let mut net = b.build(UniformDelay::new(500, 30_000), 2);
    net.run();
    // Peel off nodes one by one in a shuffled order; consistency must hold
    // after every single departure.
    let mut order: Vec<usize> = (0..ids.len()).collect();
    let mut rng = StdRng::seed_from_u64(4);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    for (step, &v) in order.iter().take(ids.len() - 1).enumerate() {
        depart(&mut net, ids[v]);
        let c = net.check_consistency();
        assert!(c.is_consistent(), "after leave #{step} of {}: {c}", ids[v]);
    }
    hop.check();
    assert_eq!(net.tables().len(), 1);
}

#[test]
fn sequential_leaves_down_to_one_node() {
    sequential_leaves(false);
}

#[test]
fn sequential_leaves_down_to_one_node_over_loopback() {
    sequential_leaves(true);
}

fn join_after_leave(socket: bool) {
    let space = IdSpace::new(8, 4).unwrap();
    let ids = distinct_ids(space, 20, 11);
    let (members, extra) = ids.split_at(18);
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    for id in members {
        b.add_member(*id);
    }
    // extra[0] joins through members[0] immediately.
    b.add_joiner(extra[0], members[0], 0);
    let mut net = b.build(UniformDelay::new(1_000, 40_000), 8);
    net.run();
    assert!(net.all_in_system());
    assert!(net.check_consistency().is_consistent());

    // Now a member leaves; the network (including the earlier joiner)
    // must stay consistent.
    depart(&mut net, members[3]);
    let c = net.check_consistency();
    assert!(c.is_consistent(), "{c}");

    // And a fresh network seeded from the survivors accepts another join.
    let survivors = net.tables();
    let mut b2 = SimNetworkBuilder::new(space);
    hop.attach(&mut b2);
    b2.with_member_tables(survivors);
    b2.add_joiner(extra[1], members[0], 0);
    let mut net2 = b2.build(UniformDelay::new(1_000, 40_000), 13);
    net2.run();
    hop.check();
    assert!(net2.all_in_system());
    assert!(net2.check_consistency().is_consistent());
}

#[test]
fn join_after_leave_works() {
    join_after_leave(false);
}

#[test]
fn join_after_leave_works_over_loopback() {
    join_after_leave(true);
}

fn leaver_with_no_substitute(socket: bool) {
    // Three nodes where the victim is the only one with its last digit:
    // after it leaves, the others' entries must be empty, not dangling.
    let space = IdSpace::new(4, 3).unwrap();
    let a = space.parse_id("000").unwrap();
    let b_ = space.parse_id("111").unwrap();
    let c = space.parse_id("222").unwrap();
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    b.add_member(a).add_member(b_).add_member(c);
    let mut net = b.build(UniformDelay::new(100, 5_000), 1);
    net.run();
    depart(&mut net, b_);
    hop.check();
    let report = net.check_consistency();
    assert!(report.is_consistent(), "{report}");
    // a's (0, 1) entry (suffix "1") must now be empty.
    let ta = net.engine(&a).table();
    assert!(ta.get(0, 1).is_none());
}

#[test]
fn leaver_with_no_substitute_leaves_entries_empty() {
    leaver_with_no_substitute(false);
}

#[test]
fn leaver_with_no_substitute_leaves_entries_empty_over_loopback() {
    leaver_with_no_substitute(true);
}

fn nonadjacent_leaves(socket: bool) {
    // Two leavers that are not each other's neighbors may leave in the
    // same wave (their LeaveNoti sets are disjoint from each other).
    let space = IdSpace::new(16, 4).unwrap();
    let ids = distinct_ids(space, 30, 17);
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    for id in &ids {
        b.add_member(*id);
    }
    let mut net = b.build(UniformDelay::new(1_000, 30_000), 3);
    net.run();
    // Pick two victims that do not reference each other.
    let mut victims = Vec::new();
    'outer: for i in 0..ids.len() {
        for j in i + 1..ids.len() {
            let (x, y) = (ids[i], ids[j]);
            let tx = net.engine(&x).table();
            let ty = net.engine(&y).table();
            let x_refs_y =
                tx.iter().any(|(_, _, e)| e.node == y) || tx.reverse_neighbors().contains(&y);
            let y_refs_x =
                ty.iter().any(|(_, _, e)| e.node == x) || ty.reverse_neighbors().contains(&x);
            if !x_refs_y && !y_refs_x {
                victims = vec![x, y];
                break 'outer;
            }
        }
    }
    assert_eq!(victims.len(), 2, "no non-adjacent pair found");
    depart(&mut net, victims[0]);
    depart(&mut net, victims[1]);
    hop.check();
    let c = net.check_consistency();
    assert!(c.is_consistent(), "{c}");
    assert_eq!(c.nodes(), 28);
}

#[test]
fn concurrent_nonadjacent_leaves() {
    nonadjacent_leaves(false);
}

#[test]
fn concurrent_nonadjacent_leaves_over_loopback() {
    nonadjacent_leaves(true);
}
