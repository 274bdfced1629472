//! # netbatch-workload
//!
//! The trace substrate for the NetBatch dynamic-rescheduling reproduction.
//! The paper's inputs — a year of job-execution traces from 20 pools — are
//! Intel-proprietary, so this crate provides the substitute (DESIGN.md §2,
//! S3):
//!
//! * [`trace`] — the portable record/trace model carrying exactly the
//!   fields the paper's trace carries;
//! * [`io`] — CSV import/export so real traces with the same schema can be
//!   swapped in;
//! * [`distributions`] — heavy-tailed samplers (log-normal body, Pareto
//!   tail) implemented in-tree;
//! * [`generator`] — arrival processes (Poisson background, MMPP bursts),
//!   job classes and pool-affinity assignment;
//! * [`scenarios`] — presets calibrated to every aggregate the paper
//!   publishes (40% utilization, 248k-job busy week, bursty pinned
//!   high-priority streams);
//! * [`analysis`] — offline trace statistics used to validate the
//!   synthetic workloads.
//!
//! ## Example
//!
//! ```
//! use netbatch_workload::scenarios::ScenarioParams;
//! use netbatch_workload::analysis::TraceAnalysis;
//!
//! let params = ScenarioParams::normal_week(0.01); // 1% scale for speed
//! let trace = params.generate_trace();
//! let analysis = TraceAnalysis::of(&trace);
//! assert!(analysis.jobs > 100);
//! assert!(analysis.high_fraction() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod distributions;
pub mod generator;
pub mod io;
pub mod scenarios;
pub mod stream;
pub mod trace;

pub use generator::{JobClass, Stream, WorkloadSpec};
pub use scenarios::{ScenarioParams, SiteSpec};
pub use stream::TraceStream;
pub use trace::{Trace, TraceRecord};
