//! The same engine drives the deterministic simulator and the UDP socket
//! runtime; both must uphold Theorem 1, and simulator runs must be exactly
//! reproducible under a seed.

use hyperring::core::{
    build_consistent_tables, check_consistency, check_reachability, ProtocolOptions,
    SimNetworkBuilder,
};
use hyperring::harness::distinct_ids;
use hyperring::id::IdSpace;
use hyperring::net::UdpNetwork;
use hyperring::sim::UniformDelay;

#[test]
fn udp_and_simulated_runs_both_consistent_and_reachable() {
    let space = IdSpace::new(8, 5).unwrap();
    let ids = distinct_ids(space, 36, 55);
    let (v, w) = ids.split_at(24);
    let joiners: Vec<_> = w
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, v[i % v.len()]))
        .collect();

    // Simulator run.
    let mut b = SimNetworkBuilder::new(space);
    for id in v {
        b.add_member(*id);
    }
    for (id, gw) in &joiners {
        b.add_joiner(*id, *gw, 0);
    }
    let mut net = b.build(UniformDelay::new(1_000, 80_000), 12);
    net.run();
    let sim_tables = net.tables();
    assert!(check_consistency(space, &sim_tables).is_consistent());
    assert!(check_reachability(&sim_tables).is_empty());

    // The same workload over real loopback sockets.
    let members = build_consistent_tables(space, v);
    let (udp_tables, _) = UdpNetwork::new(space, ProtocolOptions::new(), members)
        .run_joins(&joiners)
        .expect("socket run quiesces");
    assert!(check_consistency(space, &udp_tables).is_consistent());
    assert!(check_reachability(&udp_tables).is_empty());
}

#[test]
fn simulator_runs_are_bit_reproducible() {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct_ids(space, 48, 7);

    let run = |seed: u64| {
        let mut b = SimNetworkBuilder::new(space);
        for id in &ids[..32] {
            b.add_member(*id);
        }
        for id in &ids[32..] {
            b.add_joiner(*id, ids[0], 0);
        }
        let mut net = b.build(UniformDelay::new(1_000, 90_000), seed);
        let report = net.run();
        // A full fingerprint: delivery count, finish time, every joiner's
        // message counts, and every table entry.
        let mut fp = format!("{}:{}", report.delivered, report.finished_at);
        for e in net.engines() {
            fp.push_str(&format!(";{}={}", e.id(), e.stats().total_sent()));
            for (l, d, entry) in e.table().iter() {
                fp.push_str(&format!(",{l}.{d}.{}", entry.node));
            }
        }
        fp
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}
