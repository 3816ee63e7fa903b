//! Experiment harness: workloads, topology-backed delay models, the one
//! [`Scenario`] runner of [`Timeline`]s and its one [`TimelineReport`],
//! experiment drivers for every table/figure of the paper's evaluation,
//! the optimistic-join baseline, and plain-text/CSV reporting.
//!
//! Binaries (run with `--release`; each also writes CSV under `results/`):
//!
//! * `fig15a` — Theorem-5 bound vs `n` (Figure 15(a));
//! * `fig15b` — simulated CDF of `JoinNotiMsg` per join plus the §5.2
//!   averages table (Figure 15(b)); `--small` for a quick run;
//! * `theorem3` — max `CpRstMsg + JoinWaitMsg` vs the `d + 1` bound;
//! * `theorem4` — measured single-join cost vs the closed form;
//! * `ablation_msgsize` — §6.2 payload reductions;
//! * `bootstrap` — §6.1 network initialization;
//! * `baseline_consistency` — optimistic joins vs the paper's protocol;
//! * `faultsim` — concurrent joins over a lossy network (`FaultyDelay`),
//!   recovered by `RetryPolicy` timer retransmission; supports `--trace`;
//! * `churn` — every churn experiment as one timeline runner: join/leave
//!   waves, one crash wave (repair on and a repair-off control), or
//!   steady-state Poisson arrivals and crashes; `--runtime sim|udp`, and
//!   `--shrink SEED` minimises a failing trial.
//!
//! # Examples
//!
//! ```
//! use hyperring_harness::experiments::{run_fig15b, Fig15bConfig};
//! let r = run_fig15b(&Fig15bConfig::small(8, 1));
//! assert!(r.consistent);
//! assert!(r.max_cprst_joinwait <= r.theorem3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod experiments;
pub mod lookup;
pub mod metrics;
pub mod report;
pub mod shrink;
pub mod timeline;
pub mod topo_delay;
pub mod workload;

pub use cli::TrialOpts;
pub use lookup::{
    run_schedule, storm_keys, DelayFn, LoadStats, LookupStats, StormSchedule, StretchSummary, Zipf,
};
pub use report::Table;
pub use timeline::{
    Action, At, CheckpointReport, CompiledTimeline, KeyedStormReport, Runtime, Scenario,
    StormReport, Timeline, TimelineReport,
};
pub use topo_delay::{CachedTopologyDelay, SharedTopology, TopologyDelay};
pub use workload::{distinct_ids, run_trials, trial_seed, JoinWorkload};
