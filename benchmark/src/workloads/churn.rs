//! `churn`: the repair arm of `experiments::run_poisson_churn` — Poisson
//! arrivals and crash departures at once (the model of Jacobs &
//! Pandurangan) over `MEMBERS` nodes with the failure detector and repair
//! on: the timer-driven use of the engine. Every "repetition" is another
//! trial seed: what churn costs, and whether it ends consistent, depends on
//! the schedule. On the unmodified library about one trial in five does not
//! (a join racing a crash leaves a hole repair never fills; README, "What
//! the first run shows"); those trials are this workload's failed
//! operations, and their share may not rise.

use std::hint::black_box;

use hyperring_harness::experiments::{
    poisson_timeline, run_poisson_churn, PoissonChurnConfig, PoissonChurnResult,
};
use hyperring_harness::metrics::percentile;
use hyperring_id::IdSpace;

use super::{repeat, Outcome, Params, Plan, Report};
use crate::probes;
use crate::stats::median;
use crate::{gen, span::Tracer};

pub const MEMBERS: usize = 256;
pub const HALF_LIFE_S: f64 = 40.0;

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    // Churn to 14 s, then a quiet tail to the horizon at 30 s, so the last
    // checkpoints say whether repair converged.
    let cfg = PoissonChurnConfig {
        members: MEMBERS / p.shrink().min(8),
        half_life_us: (HALF_LIFE_S * 1e6) as u64,
        churn_until: 14_000_000,
        horizon: 30_000_000,
        checkpoint_every: 2_000_000,
        ..PoissonChurnConfig::default()
    };
    let space = IdSpace::new(cfg.base, cfg.digits).expect("valid space");
    let virtual_s = cfg.horizon / 1_000_000;
    let mut out = Outcome::default();
    let mut compile_s = vec![];
    let mut warm_up_digest = 0;
    let mut trials: Vec<PoissonChurnResult> = vec![];

    let plan = Plan {
        reps: 8,
        report: Report::Median,
    };
    let reps = repeat("churn.rep", p, tr, plan, |rep| {
        // The warm-up repeats the first timed trial.
        let seed = gen::churn_seed(p.seed, rep.index.saturating_sub(1));
        // The library's entry point builds and compiles its schedule
        // itself, inside the timed section; the same is done once more out
        // here, where it can be timed as set-up.
        rep.set_up(|tr| {
            let (_, took) = tr.time("harness.timeline.compile", || {
                black_box(
                    poisson_timeline(&cfg, seed)
                        .0
                        .compile(space, cfg.members, seed),
                )
            });
            compile_s.push(took.as_secs_f64());
        });
        let r = rep.timed("harness.poisson.run", |_| {
            (run_poisson_churn(&cfg, seed, true), None)
        });
        rep.count(virtual_s, r.delivered);
        if rep.warm_up() {
            warm_up_digest = r.trace_digest;
        } else {
            out.attempted += 1;
            if !r.consistent || r.dead_refs > 0 {
                out.failed += 1;
            }
            trials.push(r);
        }
    });
    if trials[0].trace_digest != warm_up_digest {
        out.broken
            .push("trace_digest differs between two runs of one trial seed".into());
    }
    reps.finish(&mut out);

    let ttr: Vec<u64> = trials
        .iter()
        .flat_map(|r| r.ttr_from_crash_us.iter().copied())
        .collect();
    let ttr_ms = |pct: f64| percentile(&ttr, pct).unwrap_or(0) as f64 / 1e3;
    // Time to repair, crash to repair-install, pooled over the trials:
    // virtual time, so exact for a seed.
    out.layer("harness.timeline.ttr_p50_ms", ttr_ms(50.0));
    out.layer("harness.timeline.ttr_p99_ms", ttr_ms(99.0));
    let sum = |f: fn(&PoissonChurnResult) -> u64| trials.iter().map(f).sum::<u64>() as f64;
    let n = trials.len() as f64;
    out.note(format!(
        "churn: {} members, half-life {HALF_LIFE_S} s, {} trials of {virtual_s} virtual s \
         ({:.1} joins, {:.1} crashes each), {} inconsistent; time to repair p50 {:.1} ms, \
         p99 {:.1} ms over {} samples",
        cfg.members,
        trials.len(),
        sum(|r| r.joins as u64) / n,
        sum(|r| r.crashed as u64) / n,
        out.failed,
        ttr_ms(50.0),
        ttr_ms(99.0),
        ttr.len(),
    ));

    if p.trace {
        let checkpoints: usize = trials.iter().map(|r| r.checkpoints.len()).sum();
        let consistent: usize = trials
            .iter()
            .map(|r| r.checkpoints.iter().filter(|c| c.consistent).count())
            .sum();
        out.layer("harness.timeline.compile_s", median(&compile_s));
        out.layer("core.simnet.run_s", median(&reps.wall_s));
        out.layer("core.simnet.delivered", sum(|r| r.delivered) / n);
        out.layer(
            "core.simnet.ns_per_delivery",
            reps.wall_s.iter().sum::<f64>() * 1e9 / sum(|r| r.delivered),
        );
        out.layer("harness.timeline.delivered", sum(|r| r.delivered) / n);
        out.layer("harness.timeline.timers_fired", sum(|r| r.timers_fired) / n);
        out.layer("harness.timeline.evicted", sum(|r| r.evicted) / n);
        out.layer("harness.timeline.repaired", sum(|r| r.repaired) / n);
        out.layer(
            "harness.timeline.residual_violations",
            sum(|r| r.violations as u64),
        );
        out.layer(
            "harness.timeline.checkpoints_consistent_share",
            consistent as f64 / checkpoints.max(1) as f64,
        );
        out.layer("harness.timeline.ttr_samples", ttr.len() as f64);
        out.layer("trace.overhead_pct", reps.trace_overhead_pct());

        // The timers a trial fires are armed and mostly cancelled in the
        // simulator's queue: the same relay, with and without timers.
        let events = (sum(|r| r.delivered) / n) as u64 / 4;
        probes::sim_timers(cfg.members, events, tr, &mut out);
    }
    out
}
