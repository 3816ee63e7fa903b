//! The one benchmark of hyperring.
//!
//! ```text
//! hyperring-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     one workload, in this process; the last line printed is the result
//! hyperring-benchmark run [--seed <n>] [--runs <k>] [--trace] [--smoke]
//!     every workload, each in a child process; writes out/result.json
//!     (or out/layers.json for a traced run)
//! hyperring-benchmark compare <a.json> <b.json>
//!     judges b against a under the bounds of the metric table
//! hyperring-benchmark manifest
//!     prints BENCHMARK.json from the metric tables
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

mod compare;
mod gen;
mod json;
mod metrics;
mod probes;
mod span;
mod stats;
mod sys;
mod workloads;

use json::Json;
use metrics::{per_layer, END_TO_END, RUN_SECONDS};
use span::{self_times, Tracer};
use workloads::{Outcome, Params, Workload, WORKLOADS};

/// Where result and trace files go: `out/` beside this crate's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if switches.contains(&name) {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("`--{name}` needs a value"))?
                    .clone()
            };
            map.insert(name.to_string(), value);
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a valid value")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload `{name}`; there are: {}", names.join(", "))
    })
}

/// The result object of one workload run: the line the driver reads.
fn result_json(workload: &Workload, out: &Outcome, trace: bool) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ])
    };
    let metrics = if trace {
        // Every per-layer metric, 0 where this workload does not reach
        // the layer.
        Json::obj(per_layer().iter().map(|l| {
            let v = out.per_layer.get(&l.name).copied().unwrap_or(0.0);
            (l.name.clone(), metric(v, l.unit))
        }))
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .map(|m| (m.name, metric(out.end_to_end[m.name], m.unit))),
        )
    };
    let correct = out.broken.is_empty() && (out.failed == 0 || workload.fails_at_baseline);
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
}

/// Runs one workload in this process and prints its result line last.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let workload = find_workload(&flags.get("workload", String::new())?)?;
    let p = Params {
        seed: flags.get("seed", 1)?,
        seconds: flags.get("seconds", f64::from(RUN_SECONDS))?,
        smoke: flags.has("smoke"),
        trace: flags.get("trace", 0u8)? != 0,
    };
    if p.seconds.is_nan() || p.seconds <= 0.0 {
        return Err("`--seconds` must be positive".into());
    }
    let mut tr = Tracer::new(false);
    let out = (workload.run)(&p, &mut tr);

    let known = per_layer();
    for name in out.per_layer.keys() {
        if !known.iter().any(|l| &l.name == name) {
            return Err(format!("`{name}` is not in the per-layer metric table"));
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    for why in &out.broken {
        println!("{}: BROKEN: {why}", workload.name);
    }
    if p.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace.{}.jsonl", workload.name));
        std::fs::write(&path, tr.to_jsonl(workload.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: {} spans in {}; self time by span name:",
            workload.name,
            tr.spans().len(),
            path.display()
        );
        for (name, t) in self_times(tr.spans()) {
            println!(
                "  {name:<36} {:>8} x  total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        for l in &known {
            if let Some(v) = out.per_layer.get(&l.name) {
                println!("  {:<48} {v:>16.4} {}", l.name, l.unit);
            }
        }
    } else {
        for m in &END_TO_END {
            println!(
                "  {:<48} {:>16.4} {}",
                m.name, out.end_to_end[m.name], m.unit
            );
        }
        for (name, v) in &out.per_layer {
            let unit = known
                .iter()
                .find(|l| &l.name == name)
                .map_or("", |l| l.unit);
            println!("  {name:<48} {v:>16.4} {unit}");
        }
        // For `run`, which gathers the gated per-layer metrics of an
        // untraced run from this line.
        let layers = out.per_layer.iter().map(|(k, v)| (k, Json::Num(*v)));
        println!("{LAYERS_LINE}{}", Json::obj(layers).render());
    }
    println!(
        "  {:<48} {:>16} of {}",
        "failed operations", out.failed, out.attempted
    );
    println!("{}", result_json(workload, &out, p.trace).render());
    Ok(ExitCode::SUCCESS)
}

/// What the line carrying an untraced run's per-layer metrics starts with.
const LAYERS_LINE: &str = "layers: ";

/// Runs `workload` in a child process and parses its result line, with the
/// per-layer metrics of an untraced run folded into its `metrics`.
fn run_child(workload: &str, p: &Params) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .args(["--trace", if p.trace { "1" } else { "0" }])
        .args(p.smoke.then_some("--smoke"))
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    let mut layers = None;
    for line in lines {
        match line.strip_prefix(LAYERS_LINE) {
            Some(json) => layers = Some(json),
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let bad = |e| format!("{workload}: bad result line: {e}");
    let mut result = Json::parse(last).map_err(bad)?;
    if let (Some(layers), Json::Obj(result)) = (layers, &mut result) {
        let Json::Obj(layers) = Json::parse(layers).map_err(bad)? else {
            return Err(bad("layers are not an object".into()));
        };
        if let Some(Json::Obj(metrics)) = result.get_mut("metrics") {
            let known = per_layer();
            for (name, value) in layers {
                let unit = known.iter().find(|l| l.name == name).map_or("", |l| l.unit);
                let row = Json::obj([("value", value), ("unit", Json::Str(unit.into()))]);
                metrics.insert(name, row);
            }
        }
    }
    Ok(result)
}

/// Every workload, each in its own child process, `runs` times; writes the
/// stamped result file `compare` reads.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let smoke = flags.has("smoke");
    let p = Params {
        seed: flags.get("seed", 1)?,
        seconds: if smoke { 1.0 } else { f64::from(RUN_SECONDS) },
        smoke,
        trace: flags.has("trace"),
    };
    let runs: usize = flags.get("runs", 1usize)?.max(1);
    /// What the runs of one workload add up to.
    #[derive(Default)]
    struct Sum {
        attempted: f64,
        failed: f64,
        incorrect: bool,
        /// Per metric: its unit and one value per run.
        values: BTreeMap<String, (String, Vec<f64>)>,
    }
    let mut sums: BTreeMap<&str, Sum> = BTreeMap::new();
    // Runs outside, workloads inside: a workload's runs are spread over the
    // whole set, so a slow stretch of the host shows as spread within the
    // set, not as a shift of one workload's median.
    for run in 0..runs {
        for w in &WORKLOADS {
            println!("== {} (run {} of {runs}) ==", w.name, run + 1);
            let r = run_child(w.name, &p)?;
            let sum = sums.entry(w.name).or_default();
            let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            sum.attempted += num("attempted");
            sum.failed += num("failed");
            sum.incorrect |= r.get("correct") != Some(&Json::Bool(true));
            let metrics = r
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("no metrics")?;
            for (name, m) in metrics {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let value = m.get("value").and_then(Json::as_f64).ok_or("no value")?;
                let slot = sum
                    .values
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), vec![]));
                slot.1.push(value);
            }
        }
    }
    let all_correct = sums.values().all(|sum| !sum.incorrect);
    let per_workload = sums.into_iter().map(|(name, sum)| {
        let metrics = Json::obj(sum.values.into_iter().map(|(name, (unit, v))| {
            let row = Json::obj([
                ("unit", Json::Str(unit)),
                ("median", Json::Num(stats::median(&v))),
                ("values", Json::Arr(v.into_iter().map(Json::Num).collect())),
            ]);
            (name, row)
        }));
        let row = Json::obj([
            ("attempted", Json::Num(sum.attempted)),
            ("failed", Json::Num(sum.failed)),
            ("correct", Json::Bool(!sum.incorrect)),
            ("metrics", metrics),
        ]);
        (name, row)
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = Json::obj([
        ("commit", Json::Str(sys::commit())),
        ("date", Json::Str(sys::utc_date())),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(sys::rustc_version())),
        ("seed", Json::Num(p.seed as f64)),
        ("seconds", Json::Num(p.seconds)),
        ("smoke", Json::Bool(p.smoke)),
        ("runs", Json::Num(runs as f64)),
        ("workloads", Json::obj(per_workload)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(if p.trace {
        "layers.json"
    } else {
        "result.json"
    });
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("a workload's outputs were not correct");
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(if compare::compare(&read(a)?, &read(b)?)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => {
            Flags::parse(&args[1..], &["trace", "smoke"]).and_then(|flags| run_all(&flags))
        }
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Flags::parse(&args, &["smoke"]).and_then(|flags| run_one(&flags)),
    };
    result.unwrap_or_else(|why| {
        eprintln!("hyperring-benchmark: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, traced: all five end-to-end metrics
    /// are present and positive where they cannot be 0, nothing fails, and
    /// every per-layer name it emits is one the table (and so
    /// `BENCHMARK.json`) lists.
    #[test]
    fn every_workload_runs_small_and_reports_only_tabled_metrics() {
        let known = per_layer();
        for w in &WORKLOADS {
            let p = Params {
                seed: 3,
                seconds: 0.2,
                smoke: true,
                trace: true,
            };
            let mut tr = Tracer::new(false);
            let out = (w.run)(&p, &mut tr);
            assert!(out.broken.is_empty(), "{}: {:?}", w.name, out.broken);
            assert!(
                out.failed == 0 || w.fails_at_baseline,
                "{}: {} failed",
                w.name,
                out.failed
            );
            assert!(out.attempted > 0);
            for m in &END_TO_END {
                let v = out.end_to_end[m.name];
                assert!(v.is_finite() && v >= 0.0, "{} {} = {v}", w.name, m.name);
                // CPU time comes in 10 ms ticks, too coarse for this size.
                if m.name != "cpu_us_per_msg" {
                    assert!(v > 0.0, "{} {} is 0", w.name, m.name);
                }
            }
            assert!(!out.per_layer.is_empty());
            for (name, v) in &out.per_layer {
                assert!(known.iter().any(|l| &l.name == name), "{name} not tabled");
                assert!(v.is_finite(), "{name} = {v}");
            }
            assert!(out.per_layer.contains_key("trace.overhead_pct"));
            assert!(!tr.spans().is_empty());
            for g in metrics::GATES
                .iter()
                .filter(|g| g.workloads.contains(&w.name))
            {
                let measured =
                    out.end_to_end.contains_key(g.metric) || out.per_layer.contains_key(g.metric);
                assert!(measured, "{} does not measure {}", w.name, g.metric);
            }
            let line = result_json(w, &out, true).render();
            let parsed = Json::parse(&line).unwrap();
            assert_eq!(
                parsed.get("metrics").unwrap().as_obj().unwrap().len(),
                known.len()
            );
        }
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let args: Vec<String> = ["--seed", "7", "--smoke", "--seconds", "2.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args, &["smoke", "trace"]).unwrap();
        assert_eq!(f.get("seed", 1u64), Ok(7));
        assert_eq!(f.get("seconds", 10.0), Ok(2.5));
        assert!(f.has("smoke") && !f.has("trace"));
        assert!(f.get("seed", 0u8).is_ok());
        assert!(Flags::parse(&args[..1], &[]).is_err());
        assert!(Flags::parse(&["oops".to_string()], &[]).is_err());
        assert!(find_workload("join_wave").is_ok());
        assert!(find_workload("nope").is_err());
    }
}
