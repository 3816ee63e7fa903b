//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and — end to end — the bound by which it may worsen. The
//! repository's `BENCHMARK.json` is generated from these tables
//! (`manifest` subcommand) and a test keeps the two equal.

use crate::json::Json;
use crate::probes::JOIN_KINDS;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. Every workload reports every
/// one; what "operation" and "message" mean per workload is in the README.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound `BENCHMARK.json` carries: the share by which the median
    /// of ten runs, each with *another* seed, may worsen. One number for
    /// all five workloads, so it is three times the widest spread
    /// (interquartile distance over median) any of them showed over two
    /// sets of ten such runs on the 2-core shared host this was written
    /// on, rounded up to the next of 10, 15, 20 and 25 % — and 25 %, the
    /// most the file may say, where that is less than three spreads. The
    /// README records the spreads.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_msg",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "msg/op",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// What `compare` holds a metric to, on the workloads named: an end-to-end
/// metric, or one of the few per-layer metrics a user of those workloads
/// would see (how long the Definition-3.8 pass takes, bytes per join, time
/// to repair) and that every run therefore measures, traced or not.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub metric: &'static str,
    /// Share of the base's median by which the change's may be worse.
    /// `compare` reads two result files of *one* seed, where the counted
    /// metrics repeat exactly and the timed ones spread as the host does,
    /// so these are tighter than the bounds of [`END_TO_END`].
    pub bound: f64,
    pub workloads: &'static [&'static str],
}

const ALL: &[&str] = &[
    "join_wave",
    "bootstrap",
    "churn",
    "udp_wave",
    "lookup_storm",
];
/// Where messages are counted by the simulator (or are overlay hops) and
/// times are virtual: the values repeat exactly for a seed.
const EXACT: &[&str] = &["join_wave", "bootstrap", "churn", "lookup_storm"];

const fn gate(metric: &'static str, bound: f64, workloads: &'static [&'static str]) -> Gate {
    Gate {
        metric,
        bound,
        workloads,
    }
}

pub const GATES: [Gate; 11] = [
    gate("ops_per_s", 0.10, ALL),
    gate("cpu_us_per_msg", 0.10, ALL),
    gate("msgs_per_op", 0.01, EXACT),
    gate("msgs_per_op", 0.05, &["udp_wave"]),
    gate("peak_rss_mib", 0.05, ALL),
    gate("setup_s", 0.15, ALL),
    gate(
        "core.consistency.check_s",
        0.10,
        &["join_wave", "bootstrap"],
    ),
    gate("core.simnet.bytes_per_join", 0.01, &["join_wave"]),
    gate("net.udp.bytes_per_join", 0.05, &["udp_wave"]),
    gate("harness.timeline.ttr_p50_ms", 0.01, &["churn"]),
    gate("harness.timeline.ttr_p99_ms", 0.01, &["churn"]),
];

/// Unit and direction of any metric, end-to-end or per-layer.
pub fn unit_and_direction(metric: &str) -> Option<(&'static str, Better)> {
    let e = END_TO_END.iter().find(|m| m.name == metric);
    e.map(|m| (m.unit, m.better)).or_else(|| {
        let l = per_layer().into_iter().find(|l| l.name == metric)?;
        Some((l.unit, l.better))
    })
}

/// A metric of one layer, measured by a traced run. It says where an
/// end-to-end change came from, and has a bound only where [`GATES`] names
/// it.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn layer(name: &str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name: name.to_string(),
        unit,
        better,
    }
}

/// Every per-layer metric, in the README's order. A workload that does not
/// exercise a layer reports its metrics as 0.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // Set-up phases.
        layer("id.distinct_ids_s", "s", Lower),
        layer("core.oracle.build_s", "s", Lower),
        layer("core.simnet.build_s", "s", Lower),
        layer("harness.timeline.compile_s", "s", Lower),
        // The simulated network.
        layer("core.simnet.run_s", "s", Lower),
        layer("core.simnet.delivered", "count", Lower),
        layer("core.simnet.ns_per_delivery", "ns", Lower),
        layer("core.simnet.bytes_per_join", "B", Lower),
        layer("core.simnet.add_joiners_live_s", "s", Lower),
        layer("core.simnet.wave_nodes_per_s.first", "1/s", Higher),
        layer("core.simnet.wave_nodes_per_s.last", "1/s", Higher),
        layer("core.simnet.bootstrap_s.shards4", "s", Lower),
        // The engine, replayed without a simulator.
        layer("core.driver.drive_ns", "ns", Lower),
        layer("core.driver.sends_per_input", "msg/op", Lower),
    ];
    for kind in JOIN_KINDS {
        v.push(layer(
            &format!("core.driver.drive_ns.{kind:?}"),
            "ns",
            Lower,
        ));
    }
    for kind in JOIN_KINDS {
        v.push(layer(
            &format!("core.driver.inputs.{kind:?}"),
            "count",
            Lower,
        ));
    }
    v.extend([
        layer("core.table.get_ns", "ns", Lower),
        layer("core.table.set_ns", "ns", Lower),
        layer("core.table.snapshot_ns", "ns", Lower),
        layer("core.table.clone_ns", "ns", Lower),
        layer("core.table.add_reverse_ns", "ns", Lower),
        // Checking Definition 3.8.
        layer("core.consistency.check_s", "s", Lower),
        layer("core.consistency.streaming_ns_per_table", "ns", Lower),
        layer("core.consistency.violations", "count", Lower),
        layer("core.incremental.first_check_s", "s", Lower),
        layer("core.incremental.recheck_s", "s", Lower),
        // The simulator alone.
        layer("sim.event_ns.shards1", "ns", Lower),
        layer("sim.event_ns.shards4", "ns", Lower),
        layer("sim.timer_ns", "ns", Lower),
        layer("attribution_gap_pct", "%", Lower),
        // Codec, timer wheel, sockets.
        layer("wire.encode_ns", "ns", Lower),
        layer("wire.decode_ns", "ns", Lower),
        layer("wire.frame_bytes_mean", "B", Lower),
        layer("wire.frame_bytes_max", "B", Lower),
        layer("net.timer.arm_cancel_ns", "ns", Lower),
        layer("net.timer.advance_ns_per_fire", "ns", Lower),
        layer("net.transport.send_recv_ns", "ns", Lower),
        layer("net.udp.wave_s", "s", Lower),
        layer("net.udp.bytes_per_join", "B", Lower),
        layer("net.udp.datagrams_sent", "count", Lower),
        layer("net.udp.datagrams_received", "count", Lower),
        layer("net.udp.kernel_drops", "count", Lower),
        layer("net.udp.backpressure_drops", "count", Lower),
        layer("net.udp.timers_fired", "count", Lower),
        layer("net.udp.useful_share", "1", Higher),
        layer("net.udp.join_p50_ms", "ms", Lower),
        layer("net.udp.join_tail_ms", "ms", Lower),
        layer("net.udp.join_tail_percentile", "%", Higher),
        // The object store.
        layer("object.root_from_ns", "ns", Lower),
        layer("object.publish_ns", "ns", Lower),
        layer("object.lookup_ns", "ns", Lower),
        layer("id.hash_ns", "ns", Lower),
        // The churn timeline.
        layer("harness.timeline.delivered", "count", Lower),
        layer("harness.timeline.timers_fired", "count", Lower),
        layer("harness.timeline.evicted", "count", Lower),
        layer("harness.timeline.repaired", "count", Higher),
        layer("harness.timeline.residual_violations", "count", Lower),
        layer("harness.timeline.checkpoints_consistent_share", "1", Higher),
        layer("harness.timeline.ttr_p50_ms", "ms", Lower),
        layer("harness.timeline.ttr_p99_ms", "ms", Lower),
        layer("harness.timeline.ttr_samples", "count", Higher),
        layer("trace.overhead_pct", "%", Lower),
    ]);
    v
}

/// How long one run measures, in seconds: what the driver passes as
/// `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let s = |x: &str| Json::Str(x.into());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut out = format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS}",
        Json::Arr(command.iter().map(|c| s(c)).collect()).render()
    );
    let mut section = |key: &str, rows: Vec<Json>| {
        out.push_str(&format!(",\n  \"{key}\": [\n"));
        let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]");
    };
    section(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
            .collect(),
    );
    section(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect(),
    );
    section(
        "per_layer",
        per_layer()
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", s(&m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.as_str())),
                ])
            })
            .collect(),
    );
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} layers", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for u in layers
            .iter()
            .map(|l| l.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u}");
        }
        for g in GATES {
            assert!(g.bound > 0.0 && g.bound <= 0.25, "{g:?}");
            assert!(unit_and_direction(g.metric).is_some(), "{g:?}");
            for w in g.workloads {
                assert!(WORKLOADS.iter().any(|known| known.name == *w), "{g:?}");
            }
        }
        // Every workload is held to every end-to-end metric, once.
        for w in WORKLOADS {
            for m in END_TO_END {
                let held = |g: &&Gate| g.metric == m.name && g.workloads.contains(&w.name);
                assert_eq!(
                    GATES.iter().filter(held).count(),
                    1,
                    "{} {}",
                    w.name,
                    m.name
                );
            }
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest`"
        );
        let parsed = Json::parse(&on_disk).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(on_disk.len() < 64 * 1024);
    }
}
