//! §6.1 network initialization: a network is born as a single node; every
//! other node joins by running the join protocol — here in the most
//! stressful way (everyone at t = 0, all through the seed node).
//!
//! Run with: `cargo run --release --example bootstrap`

use hyperring::core::{bootstrap, check_consistency, ProtocolOptions, SimNetworkBuilder};
use hyperring::harness::distinct_ids;
use hyperring::id::IdSpace;
use hyperring::sim::UniformDelay;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let space = IdSpace::new(16, 8)?;
    let n = 128;
    let ids = distinct_ids(space, n, 7);

    // Sequential initialization (each join completes before the next).
    let tables = bootstrap(space, ProtocolOptions::new(), &ids, 1).tables();
    let report = check_consistency(space, &tables);
    assert!(report.is_consistent());
    println!("sequential bootstrap of {n} nodes: {report}");

    // Concurrent initialization: the seed node's JoinWait queue (Q_j)
    // serializes the first wave safely.
    let mut b = SimNetworkBuilder::new(space);
    b.add_member(ids[0]);
    for id in &ids[1..] {
        b.add_joiner(*id, ids[0], 0);
    }
    let mut net = b.build(UniformDelay::new(500, 50_000), 3);
    let run = net.run();
    assert!(net.all_in_system());
    let report = net.check_consistency();
    assert!(report.is_consistent());
    println!(
        "concurrent bootstrap of {n} nodes: {report} ({} messages, {:.3} s virtual)",
        run.delivered,
        run.finished_at as f64 / 1e6
    );
    Ok(())
}
