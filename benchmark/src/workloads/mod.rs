//! The five workloads. Each is one function from [`Params`] to an
//! [`Outcome`]; the process runs exactly one of them, so peak RSS and CPU
//! time are the workload's own.

use std::collections::BTreeMap;
use std::time::Duration;

use hyperring_harness::metrics::peak_rss_bytes;

use crate::metrics::RUN_SECONDS;
use crate::span::Tracer;
use crate::stats::median;
use crate::sys::process_cpu_time;

pub mod bootstrap;
pub mod churn;
pub mod join_wave;
pub mod lookup_storm;
pub mod udp_wave;

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives input generation only; the library sees ids, schedules and
    /// names.
    pub seed: u64,
    /// How long the run should measure: the repetition counts of the
    /// workloads are stated for [`RUN_SECONDS`] and scale with this.
    pub seconds: f64,
    /// Every input at 1/16 of the README's size.
    pub smoke: bool,
    /// Record spans, run the per-layer probes, write the trace file.
    pub trace: bool,
}

impl Params {
    /// What input sizes are divided by.
    pub fn shrink(&self) -> usize {
        if self.smoke {
            16
        } else {
            1
        }
    }
}

/// A workload by name.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether operations fail on the unmodified library. They do in
    /// `churn`, for about one trial in five (README, "What the first
    /// run shows"): those are counted in `failed`, which may not rise, and
    /// the run is still correct. Anywhere else a failed operation means
    /// the run's outputs are wrong.
    pub fails_at_baseline: bool,
    pub run: fn(&Params, &mut Tracer) -> Outcome,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "join_wave",
        why: "4096 concurrent joins into 12288 members in the simulator: engine, table and snapshot payloads; no timers, no sockets",
        fails_at_baseline: false,
        run: join_wave::run,
    },
    Workload {
        name: "bootstrap",
        why: "grow one seed node to 16384 in waves of 2048: tables start empty, the directory and the event queue grow",
        fails_at_baseline: false,
        run: bootstrap::run,
    },
    Workload {
        name: "churn",
        why: "concurrent Poisson joins and crashes over 256 members with detector and repair on: timer-driven use of the same engine",
        fails_at_baseline: true,
        run: churn::run,
    },
    Workload {
        name: "udp_wave",
        why: "256 joins into 768 members over loopback UDP: the only workload where wire, transport, timer wheel and poll loop run",
        fails_at_baseline: false,
        run: udp_wave::run,
    },
    Workload {
        name: "lookup_storm",
        why: "500k Zipf lookups of 16384 published names over 4096 nodes: the read path over tables, beside the write path of the joins",
        fails_at_baseline: false,
        run: lookup_storm::run,
    },
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, over the timed repetitions.
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not operations and did not hold: a digest that
    /// differs between identical repetitions, a shard-parity mismatch.
    pub broken: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The gated per-layer metrics in every run, all of them in a traced
    /// one.
    pub per_layer: BTreeMap<String, f64>,
    /// Lines for a human reader, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.per_layer.insert(name.into(), value);
    }

    /// `<prefix>_p50_ms`, `<prefix>_tail_ms` and `<prefix>_tail_percentile`.
    pub fn latency_layers(&mut self, prefix: &str, l: &crate::stats::Latency) {
        self.layer(format!("{prefix}_p50_ms"), l.p50_ms);
        self.layer(format!("{prefix}_tail_ms"), l.tail_ms);
        self.layer(format!("{prefix}_tail_percentile"), l.tail_percentile);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Which repetition of a run stands for the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Report {
    /// Every repetition runs the same input, and the *best* one is
    /// reported: on identical work interference from the host only ever
    /// adds time, so the fastest repetition is the one nearest the
    /// program's own cost. (On the host this was written on a neighbour
    /// slows the CPU by a third for seconds to minutes; over ten runs the
    /// best repetition spread 2.5 % where the median repetition spread
    /// 6 %.)
    #[default]
    Best,
    /// Every repetition is another input (a churn trial seed), so none is
    /// "the same work, disturbed": the *median* one is reported.
    Median,
}

/// How a workload repeats.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plan {
    /// Timed repetitions in a run of [`RUN_SECONDS`]; another `--seconds`
    /// scales the count. It does not depend on how fast the host is
    /// today, so the same statistic is taken over the same count
    /// everywhere, and a workload whose repetitions differ runs the same
    /// ones.
    pub reps: usize,
    pub report: Report,
}

/// The timed repetitions of one workload, and the end-to-end metrics every
/// workload derives from them in the same way.
#[derive(Debug, Default)]
pub struct Reps {
    report: Report,
    /// Wall of each set-up made (s).
    pub setup_s: Vec<f64>,
    /// Timed-section wall of each repetition (s).
    pub wall_s: Vec<f64>,
    /// Process CPU time of each repetition's timed section (s).
    pub cpu_s: Vec<f64>,
    /// Messages of each repetition's timed section: simulator sends,
    /// datagrams sent, or overlay hops.
    pub msgs: Vec<u64>,
    /// Operations of each repetition's timed section: joins, nodes,
    /// virtual seconds or lookups.
    pub ops: Vec<u64>,
    /// Whole-repetition walls of a traced run, by whether spans were
    /// being recorded.
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

impl Reps {
    /// The repetition that stands for the run, of per-repetition costs
    /// (lower is better): the least or the median, as [`Report`] says.
    pub fn cost(&self, per_rep: &[f64]) -> f64 {
        match self.report {
            Report::Best => per_rep.iter().copied().fold(f64::MAX, f64::min),
            Report::Median => median(per_rep),
        }
    }

    /// Fills in the five end-to-end metrics.
    pub fn finish(&self, out: &mut Outcome) {
        assert_eq!(
            self.ops.len(),
            self.wall_s.len(),
            "one count per timed section"
        );
        let s_per_op: Vec<f64> = (self.ops.iter().zip(&self.wall_s))
            .map(|(ops, wall)| wall / (*ops).max(1) as f64)
            .collect();
        let cpu_us_per_msg: Vec<f64> = (self.cpu_s.iter().zip(&self.msgs))
            .map(|(cpu, msgs)| cpu * 1e6 / (*msgs).max(1) as f64)
            .collect();
        let (ops, msgs): (u64, u64) = (self.ops.iter().sum(), self.msgs.iter().sum());
        out.end_to_end.insert("setup_s", median(&self.setup_s));
        out.end_to_end
            .insert("ops_per_s", 1.0 / self.cost(&s_per_op));
        out.end_to_end
            .insert("cpu_us_per_msg", self.cost(&cpu_us_per_msg));
        out.end_to_end
            .insert("msgs_per_op", msgs as f64 / ops.max(1) as f64);
        out.end_to_end.insert(
            "peak_rss_mib",
            peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64,
        );
        let walls: Vec<String> = self.wall_s.iter().map(|w| format!("{w:.3}")).collect();
        out.note(format!("  timed sections (s): {}", walls.join(" ")));
    }

    /// `100 · (traced − untraced) / untraced` over the median walls of the
    /// traced and the untraced repetitions of a traced run.
    pub fn trace_overhead_pct(&self) -> f64 {
        let (t, u) = (median(&self.traced_s), median(&self.untraced_s));
        100.0 * (t - u) / u
    }
}

/// One repetition in progress.
pub struct Rep<'a> {
    /// 0 is the discarded warm-up.
    pub index: usize,
    pub tr: &'a mut Tracer,
    acct: &'a mut Reps,
    /// Set-up wall of this repetition so far.
    setup: Duration,
}

impl Rep<'_> {
    pub fn warm_up(&self) -> bool {
        self.index == 0
    }

    /// Runs `f` as (part of) this repetition's set-up.
    pub fn set_up<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let open = self.tr.enter("setup");
        let r = f(self.tr);
        self.setup += self.tr.exit(open);
        r
    }

    /// Runs `f` as the repetition's timed section. `f` returns its result
    /// and, if the callee measures its own wall (the UDP runtime does),
    /// that wall, which then stands for the section's.
    pub fn timed<R>(
        &mut self,
        span: &'static str,
        f: impl FnOnce(&mut Tracer) -> (R, Option<Duration>),
    ) -> R {
        let cpu0 = process_cpu_time();
        let open = self.tr.enter(span);
        let (r, own_wall) = f(self.tr);
        let wall = self.tr.exit(open);
        let cpu = match (cpu0, process_cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => Duration::ZERO,
        };
        self.acct.cpu_s.push(cpu.as_secs_f64());
        self.acct
            .wall_s
            .push(own_wall.unwrap_or(wall).as_secs_f64());
        r
    }

    /// Records what the timed section did: its operations (joins, nodes,
    /// virtual seconds, lookups) and the messages it moved.
    pub fn count(&mut self, ops: u64, msgs: u64) {
        self.acct.ops.push(ops);
        self.acct.msgs.push(msgs);
    }
}

/// A median needs three repetitions, and a traced run at least one of each
/// kind.
const MIN_REPS: usize = 3;

/// Runs `one` as a discarded warm-up and then as the timed repetitions of
/// `plan`. In a traced run half the time goes to the probes, and
/// repetitions alternate untraced and traced so the run reports its own
/// overhead.
pub fn repeat(
    span: &'static str,
    p: &Params,
    tr: &mut Tracer,
    plan: Plan,
    mut one: impl FnMut(&mut Rep<'_>),
) -> Reps {
    let mut reps = Reps {
        report: plan.report,
        ..Reps::default()
    };
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let timed = (plan.reps as f64 * budget / f64::from(RUN_SECONDS)).round() as usize;
    for index in 0..=timed.max(MIN_REPS) {
        let warm_up = index == 0;
        let traced = p.trace && index % 2 == 0 && !warm_up;
        tr.set_enabled(traced);
        let mut scratch = Reps::default();
        let open = tr.enter(span);
        let mut rep = Rep {
            index,
            tr,
            acct: if warm_up { &mut scratch } else { &mut reps },
            setup: Duration::ZERO,
        };
        one(&mut rep);
        // A set-up made during the warm-up is as good a sample as any. A
        // repetition that re-used an earlier set-up contributes none.
        let setup = rep.setup;
        if !setup.is_zero() {
            reps.setup_s.push(setup.as_secs_f64());
        }
        let wall = tr.exit(open).as_secs_f64();
        if traced {
            reps.traced_s.push(wall);
        } else if !warm_up {
            reps.untraced_s.push(wall);
        }
    }
    tr.set_enabled(p.trace);
    reps
}
