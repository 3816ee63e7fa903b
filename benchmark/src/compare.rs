//! `compare <a.json> <b.json>`: two result files, one row per gated
//! (workload, metric) pair, judged under the bounds of the metric table.

use crate::json::Json;
use crate::metrics::{unit_and_direction, Better, GATES};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, and
    /// the two sides' runs overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a`'s median `b`'s median is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges the runs of `b` (the change) against the runs of `a` (the base):
/// `b`'s median may be worse than `a`'s by at most `bound`.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        let every_b_better = b.iter().all(|y| {
            a.iter().all(|x| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(better, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed_share(result: &Json, workload: &str) -> Option<f64> {
    let w = result.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Prints the comparison; returns whether `b` is acceptable (nothing
/// regressed, no workload fails a larger share of its operations).
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    // The bounds are those of one input, run twice: counts repeat exactly
    // only if both sides generated the same.
    for key in ["seed", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the files differ in `{key}`: not the same inputs"));
        }
    }
    let mut acceptable = true;
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>8}  verdict (b/a; bound on worsening)",
        "workload", "metric", "a", "b", "b/a"
    );
    for name in workloads.keys() {
        for g in GATES
            .iter()
            .filter(|g| g.workloads.contains(&name.as_str()))
        {
            let (Some(va), Some(vb)) = (values(a, name, g.metric), values(b, name, g.metric))
            else {
                println!("{name:<13} {:<28} missing on one side", g.metric);
                acceptable = false;
                continue;
            };
            let (_, better) = unit_and_direction(g.metric).ok_or("gate on an unknown metric")?;
            let (ma, mb) = (median(&va), median(&vb));
            let verdict = judge(better, g.bound, &va, &vb);
            acceptable &= verdict != Verdict::Regressed;
            println!(
                "{name:<13} {:<28} {ma:>14.4} {mb:>14.4} {:>8.4}  {} ({} is better, bound {:.0} %, n = {}/{})",
                g.metric,
                mb / ma,
                verdict.as_str(),
                better.as_str(),
                g.bound * 100.0,
                va.len(),
                vb.len(),
            );
        }
        match (failed_share(a, name), failed_share(b, name)) {
            (Some(fa), Some(fb)) => {
                let ok = fb <= fa;
                acceptable &= ok;
                println!(
                    "{name:<13} {:<28} {fa:>14.6} {fb:>14.6} {:>8}  {}",
                    "failed_share",
                    "",
                    if ok { "ok" } else { "regressed (may not rise)" }
                );
            }
            _ => {
                println!("{name:<13} failed_share missing on one side");
                acceptable = false;
            }
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Better = Better::Higher;
    const LOWER: Better = Better::Lower;

    #[test]
    fn worsening_is_direction_aware() {
        assert!((worse_by(HIGHER, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(LOWER, 100.0, 80.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let rate = |b: &[f64]| judge(HIGHER, 0.10, &a, b);
        let cost = |a: &[f64], b: &[f64]| judge(LOWER, 0.10, a, b);
        assert_eq!(rate(&[95.0, 94.0, 96.0, 95.0]), Verdict::Ok);
        assert_eq!(rate(&[85.0, 84.0, 86.0, 85.0]), Verdict::Regressed);
        // A faster change is never a regression, however much faster.
        assert_eq!(rate(&[150.0, 151.0, 149.0, 150.0]), Verdict::Ok);
        assert_eq!(cost(&a, &[115.0, 114.0, 116.0, 115.0]), Verdict::Regressed);
        // Single runs have no spread: judged on the values alone.
        assert_eq!(cost(&[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(cost(&[100.0], &[111.0]), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert!(spread(&noisy).unwrap() > 0.10);
        assert_eq!(
            judge(HIGHER, 0.10, &noisy, &[85.0, 84.0, 86.0, 85.0, 85.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(HIGHER, 0.10, &noisy, &[140.0, 141.0, 139.0, 140.0, 150.0]),
            Verdict::Ok
        );
    }

    /// A result file with one `join_wave` run: `ops_per_s`, `msgs_per_op`
    /// and the Definition-3.8 pass as given, every other gated metric 1.
    fn file(seed: f64, ops: f64, msgs: f64, check_s: f64, failed: f64) -> Json {
        let gated = GATES.iter().filter(|g| g.workloads.contains(&"join_wave"));
        let metrics = Json::obj(gated.map(|g| {
            let v = match g.metric {
                "ops_per_s" => ops,
                "msgs_per_op" => msgs,
                "core.consistency.check_s" => check_s,
                _ => 1.0,
            };
            (
                g.metric,
                Json::obj([("values", Json::Arr(vec![Json::Num(v)]))]),
            )
        }));
        let run = Json::obj([
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("metrics", metrics),
        ]);
        Json::obj([
            ("seed", Json::Num(seed)),
            ("workloads", Json::obj([("join_wave", run)])),
        ])
    }

    #[test]
    fn compare_reads_result_files() {
        let base = file(1.0, 4000.0, 73.5, 0.3, 0.0);
        assert_eq!(compare(&base, &file(1.0, 3900.0, 73.5, 0.3, 0.0)), Ok(true));
        assert_eq!(
            compare(&base, &file(1.0, 3000.0, 73.5, 0.3, 0.0)),
            Ok(false)
        );
        // A gated per-layer metric regresses a comparison as well.
        assert_eq!(
            compare(&base, &file(1.0, 4000.0, 73.5, 0.6, 0.0)),
            Ok(false)
        );
        // A count is held to 1 %.
        assert_eq!(compare(&base, &file(1.0, 4000.0, 74.0, 0.3, 0.0)), Ok(true));
        assert_eq!(
            compare(&base, &file(1.0, 4000.0, 75.0, 0.3, 0.0)),
            Ok(false)
        );
        // Another seed is another input: nothing to compare.
        assert!(compare(&base, &file(2.0, 4000.0, 73.5, 0.3, 0.0)).is_err());
        assert_eq!(
            compare(&base, &file(1.0, 4000.0, 73.5, 0.3, 1.0)),
            Ok(false)
        );
        assert!(compare(&Json::Null, &base).is_err());
    }
}
