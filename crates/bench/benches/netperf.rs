//! Socket-runtime throughput: join waves over real loopback UDP.
//!
//! Measures the non-blocking [`UdpNetwork`] runtime end to end — wire
//! encode, kernel round trip, decode, engine step — at n = 256 and
//! n = 1024 total nodes (3/4 members, 1/4 joining concurrently), and
//! exports messages/sec, mean time per message, and bytes per join to
//! `BENCH_net.json` at the workspace root. Hand-rolled `main`: each wave
//! is one long self-measuring run (the runtime's own [`UdpRunStats`]
//! carry the counters), so Criterion's sampling adds nothing here. Set
//! `BENCH_SMOKE=1` to run one small wave without touching the JSON.

use hyperring_core::{build_consistent_tables, check_consistency, ProtocolOptions, RetryPolicy};
use hyperring_harness::distinct_ids;
use hyperring_harness::metrics::{cores, peak_rss_bytes};
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::{UdpConfig, UdpNetwork, UdpRunStats};
use std::time::Duration;

/// Total population of a wave; 3/4 oracle-built members, 1/4 joiners.
const SIZES: [usize; 2] = [256, 1024];
/// Waves per size; the median-wall run's stats are exported.
const RUNS: usize = 3;

struct Row {
    n: usize,
    joiners: usize,
    stats: UdpRunStats,
}

impl Row {
    fn messages_per_sec(&self) -> f64 {
        self.stats.datagrams_sent as f64 / self.stats.wall.as_secs_f64()
    }
    fn mean_ns_per_message(&self) -> f64 {
        self.stats.wall.as_nanos() as f64 / self.stats.datagrams_sent.max(1) as f64
    }
    fn bytes_per_join(&self) -> f64 {
        self.stats.bytes_sent as f64 / self.joiners as f64
    }
}

fn run_wave(space: IdSpace, n: usize, seed: u64) -> Row {
    let members = n * 3 / 4;
    let ids = distinct_ids(space, n, seed);
    let tables = build_consistent_tables(space, &ids[..members]);
    let joiners: Vec<(NodeId, NodeId)> = ids[members..]
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, ids[i % members]))
        .collect();
    // The retry policy shields the wave from kernel-buffer overload (the
    // only loss source here; no injected drops in a throughput run).
    let opts = ProtocolOptions::new().with_retry(RetryPolicy {
        timeout_us: 100_000,
        max_retries: 20,
        ..RetryPolicy::default()
    });
    let config = UdpConfig {
        settle: Duration::from_millis(100),
        quiesce_timeout: Duration::from_secs(300),
        ..UdpConfig::default()
    };
    let (tables, stats) = UdpNetwork::new(space, opts, tables)
        .with_config(config)
        .run_joins(&joiners)
        .expect("wave quiesces");
    assert!(
        check_consistency(space, &tables).is_consistent(),
        "throughput run must still satisfy Definition 3.8"
    );
    Row {
        n,
        joiners: joiners.len(),
        stats,
    }
}

fn median_wave(space: IdSpace, n: usize, runs: usize) -> Row {
    let mut rows: Vec<Row> = (0..runs as u64)
        .map(|r| run_wave(space, n, 5 + r))
        .collect();
    rows.sort_by_key(|a| a.stats.wall);
    rows.remove(rows.len() / 2)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let space = IdSpace::new(16, 4).unwrap();
    if smoke {
        let row = run_wave(space, 64, 5);
        println!(
            "smoke wave n=64: {} messages, {:.0} msgs/sec; BENCH_net.json left untouched",
            row.stats.datagrams_sent,
            row.messages_per_sec()
        );
        return;
    }

    let rss = peak_rss_bytes().unwrap_or(0);
    let ncores = cores();
    let mut json_rows = Vec::new();
    for &n in &SIZES {
        let row = median_wave(space, n, RUNS);
        println!(
            "netperf n={n}: {} msgs in {:?} → {:.0} msgs/sec, {:.0} ns/msg, {:.0} bytes/join \
             ({} timers, {} backpressure drops)",
            row.stats.datagrams_sent,
            row.stats.wall,
            row.messages_per_sec(),
            row.mean_ns_per_message(),
            row.bytes_per_join(),
            row.stats.timers_fired,
            row.stats.backpressure_drops,
        );
        json_rows.push(format!(
            "  {{\"shape\": \"udp_wave\", \"n\": {}, \"joiners\": {}, \"messages\": {}, \
             \"bytes\": {}, \"wall_ns\": {}, \"messages_per_sec\": {:.1}, \
             \"mean_ns_per_message\": {:.1}, \"bytes_per_join\": {:.1}, \
             \"timers_fired\": {}, \"backpressure_drops\": {}}}",
            row.n,
            row.joiners,
            row.stats.datagrams_sent,
            row.stats.bytes_sent,
            row.stats.wall.as_nanos(),
            row.messages_per_sec(),
            row.mean_ns_per_message(),
            row.bytes_per_join(),
            row.stats.timers_fired,
            row.stats.backpressure_drops,
        ));
    }

    let json = format!(
        "{{\n\"rows\": [\n{}\n],\n\"peak_rss_bytes\": {rss},\n\"cores\": {ncores}\n}}\n",
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, json).expect("write BENCH_net.json");
    println!("wrote {path}");
}
