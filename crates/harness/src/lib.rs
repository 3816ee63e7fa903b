//! Experiment harness: workloads, topology-backed delay models, the one
//! [`Scenario`] runner of [`Timeline`]s and its one [`TimelineReport`],
//! experiment drivers for every table/figure of the paper's evaluation,
//! the optimistic-join baseline, and plain-text/CSV reporting.
//!
//! The experiments run as subcommands of the root package's one binary,
//! `hyperring-cli` (run with `--release`; each also writes CSV under
//! `results/`): `fig15a`, `fig15b`, `theorem3`, `theorem4`, `occupancy`,
//! `footnote8`, `ablation_msgsize`, `bootstrap`, `baseline_consistency`,
//! `faultsim`, `stretch`, `lookup`, `scale` and `churn` (join/leave waves,
//! one crash wave, or steady-state Poisson churn; `--shrink SEED`
//! minimises a failing trial).
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
pub mod experiments;
pub mod lookup;
pub mod metrics;
pub mod report;
pub mod shrink;
pub mod timeline;
pub mod topo_delay;
pub mod workload;

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
