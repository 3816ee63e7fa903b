//! Graceful departure (extension): a member leaves, its reverse neighbors
//! receive suffix-valid replacements, and the survivors' tables are
//! consistent again — then the network keeps absorbing joins.
//!
//! Run with: `cargo run --release --example graceful_leave`

use hyperring::core::{NodeInput, SimNetworkBuilder, Status};
use hyperring::harness::distinct_ids;
use hyperring::id::IdSpace;
use hyperring::sim::UniformDelay;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let space = IdSpace::new(16, 8)?;
    let ids = distinct_ids(space, 64, 33);

    let mut b = SimNetworkBuilder::new(space);
    for id in &ids[..56] {
        b.add_member(*id);
    }
    for id in &ids[56..60] {
        b.add_joiner(*id, ids[0], 0);
    }
    let mut net = b.build(UniformDelay::new(1_000, 50_000), 9);
    net.run();
    assert!(net.all_in_system());
    println!(
        "network up: {} nodes, {}",
        net.tables().len(),
        net.check_consistency()
    );

    // Three members depart gracefully, one after the other.
    for victim in [&ids[3], &ids[17], &ids[42]] {
        let before = net.engine(victim).table().reverse_neighbors().len();
        net.inject(net.now(), *victim, NodeInput::BeginLeave);
        net.run();
        assert_eq!(net.engine(victim).status(), Status::Departed);
        let c = net.check_consistency();
        assert!(c.is_consistent());
        println!("{victim} left (had {before} reverse neighbors) -> {c}");
    }

    // The shrunken network still accepts concurrent joins.
    let mut b = SimNetworkBuilder::new(space);
    b.with_member_tables(net.tables());
    for id in &ids[60..] {
        b.add_joiner(*id, ids[0], 0);
    }
    let mut net2 = b.build(UniformDelay::new(1_000, 50_000), 10);
    net2.run();
    assert!(net2.all_in_system());
    let c = net2.check_consistency();
    assert!(c.is_consistent());
    println!("after 4 more concurrent joins: {c}");
    Ok(())
}
