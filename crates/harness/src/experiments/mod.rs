//! Experiment drivers, one per table/figure/claim of the paper's
//! evaluation. Each driver is a pure function from a config to a result
//! struct; the `bin/` targets print the paper-style rows and write CSVs.

mod bootstrap;
mod churn;
mod faults;
mod fig15a;
mod fig15b;
mod lookup;
mod msgsize;
mod occupancy;
mod scale;
mod stretch;
mod theorem4;

pub use bootstrap::{run_bootstrap, run_bootstrap_traced, BootstrapConfig, BootstrapResult};
pub use churn::{
    poisson_timeline, run_crashchurn, run_poisson_churn, run_wave_churn, wave_stats,
    CrashChurnConfig, PoissonChurnConfig, PoissonChurnResult, WaveChurnConfig, WaveStats,
};
pub use faults::{run_faults, FaultsConfig, FaultsResult};
pub use fig15a::{fig15a_series, Fig15aPoint};
pub use fig15b::{run_fig15b, run_fig15b_trials, DelayKind, Fig15bConfig, Fig15bResult};
pub use lookup::{run_lookup_storm, LookupArm, LookupStormConfig, LookupStormResult};
pub use msgsize::{run_msgsize_ablation, MsgSizeResult};
pub use occupancy::{run_occupancy, OccupancyPoint};
pub use scale::{run_scale, ScaleConfig, ScaleResult};
pub use stretch::{run_stretch, StretchResult, StretchStats};
pub use theorem4::{run_theorem4, Theorem4Point};
