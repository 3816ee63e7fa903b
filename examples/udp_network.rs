//! The same join protocol over real loopback UDP sockets: no simulator,
//! no seeded schedule — message races are whatever the machine produces,
//! and Theorem 1 must (and does) still hold.
//!
//! Run with: `cargo run --release --example udp_network`

use hyperring::core::{build_consistent_tables, check_consistency, ProtocolOptions};
use hyperring::harness::distinct_ids;
use hyperring::id::IdSpace;
use hyperring::net::UdpNetwork;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let space = IdSpace::new(16, 6)?;
    let (n, m) = (48usize, 24usize);
    let ids = distinct_ids(space, n + m, 1234);

    let members = build_consistent_tables(space, &ids[..n]);
    let joiners: Vec<_> = ids[n..]
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, ids[i % n]))
        .collect();

    println!(
        "hosting {} engines ({n} members + {m} joiners) on loopback UDP …",
        n + m
    );
    let net = UdpNetwork::new(space, ProtocolOptions::new(), members);
    let (tables, stats) = net.run_joins(&joiners)?;
    println!(
        "all joins finished: {} datagrams ({} bytes) sent, {} timers fired, {:.1} ms of wall-clock time",
        stats.datagrams_sent,
        stats.bytes_sent,
        stats.timers_fired,
        stats.wall.as_secs_f64() * 1e3
    );

    let report = check_consistency(space, &tables);
    assert!(report.is_consistent());
    println!("{report}");
    println!("Theorem 1 held under real socket interleaving.");
    Ok(())
}
