//! # netbatch
//!
//! A full reproduction of *"On the Feasibility of Dynamic Rescheduling on
//! the Intel Distributed Computing Platform"* (Zhang, Phan, Tan, Jain,
//! Duong, Loo, Lee — Middleware 2010): the NetBatch-like cluster model with
//! priority-based host-level preemption, a deterministic discrete-event
//! simulator (the open equivalent of Intel's ASCA), synthetic trace
//! generation calibrated to the paper's published aggregates, the five
//! dynamic rescheduling strategies the paper evaluates, and the experiment
//! machinery that regenerates every table and figure.
//!
//! This umbrella crate re-exports the workspace's five library crates:
//!
//! * [`sim_engine`] — event queue, virtual clock, deterministic RNG;
//! * [`cluster`] — jobs, machines, pools, preemption mechanics;
//! * [`workload`] — trace model, generators, scenario presets;
//! * [`metrics`] — CDFs, time series, the paper's waste decomposition;
//! * [`core`] — policies, the simulator facade, the experiment runner.
//!
//! ## Quick start
//!
//! ```
//! use netbatch::core::experiment::Experiment;
//! use netbatch::core::policy::{InitialKind, StrategyKind};
//! use netbatch::core::simulator::SimConfig;
//! use netbatch::workload::scenarios::ScenarioParams;
//!
//! // A 1%-scale replica of the paper's normal-load week.
//! let params = ScenarioParams::normal_week(0.01);
//! let result = Experiment::new(
//!     params.build_site(),
//!     params.generate_trace(),
//!     SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil),
//! )
//! .run();
//! println!(
//!     "suspend rate {:.2}%, AvgWCT {:.1} min",
//!     result.suspend_rate * 100.0,
//!     result.avg_wct()
//! );
//! # assert_eq!(result.counters.completed, result.total_jobs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use netbatch_cluster as cluster;
pub use netbatch_core as core;
pub use netbatch_metrics as metrics;
pub use netbatch_sim_engine as sim_engine;
pub use netbatch_workload as workload;

/// The crate version, for reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
