//! Conformance suite for the streaming backend (differential testing,
//! same discipline as `sharded_conformance`):
//!
//! * streaming runs are **shard-count independent**: the golden JSONL
//!   trace is byte-identical across 1/2/4/20 workers and across both
//!   event-queue backends (the streaming canonical order is defined
//!   per-pool, so partitioning cannot reorder it);
//! * streaming equals a **materialized** serial run job-for-job and
//!   counter-for-counter when sampling is off (per-pool event sequences
//!   coincide; only cross-pool interleaving within a minute differs,
//!   which no per-job record or counter can see);
//! * epoch **pipelining** is unobservable: with pipelining force-disabled
//!   the deterministic outputs, and an attached recorder's trace, are
//!   identical;
//! * a committed fixture pins one sampled cell's trace and Figure-4
//!   series byte for byte at every worker count, queue backend and
//!   pipelining setting;
//! * a year-long horizon streams in bounded state end to end.
//!
//! To regenerate the fixture after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test streaming_conformance
//! ```

use std::fmt::Write as _;
use std::fs;

use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::simulator::{Backend, SimConfig, SimOutput, Simulator};
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::PerPoolParams;

/// Fixture path relative to the crate root.
const GOLDEN_PATH: &str = "tests/golden/streaming_sampled_8pool.jsonl";

fn base_config(backend: Backend) -> SimConfig {
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.backend = backend;
    config
}

/// A small pool-major workload with enough pressure (bursty pinned high
/// streams) to exercise suspensions, resumes and queueing on every pool.
fn params() -> PerPoolParams {
    PerPoolParams::new(8, 0.3, 2_000).with_high_bursts()
}

/// Runs one streaming cell with a trace recorder attached and returns
/// the JSONL stream plus the full output.
fn run_streaming_traced(p: &PerPoolParams, config: SimConfig) -> (String, SimOutput) {
    let site = p.build_site();
    let workload = p.build_workload();
    let mut sim = Simulator::new(&site, Vec::new(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let output = sim.run_streaming(&workload, p.seed);
    let jsonl = output
        .observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string();
    (jsonl, output)
}

/// The fixture cell: [`params`] with its arrival window cut to 1200
/// minutes and hourly sampling. That keeps the fixture under 500 KB (the
/// heavy-tailed drain runs past minute 41000, so per-minute ticks alone
/// would exceed it) while the bursts still preempt, and the minutes
/// between ticks are where epochs pipeline.
fn fixture_params() -> PerPoolParams {
    let mut p = params();
    p.horizon = 1_200;
    p
}

fn fixture_config(backend: Backend, reference_queue: bool, pipeline: bool) -> SimConfig {
    let mut config = base_config(backend);
    config.seed = fixture_params().seed;
    config.sample_interval = Some(SimDuration::from_minutes(60));
    config.use_reference_queue = reference_queue;
    config.stream_pipeline = pipeline;
    config
}

/// Fixture text for one run: the recorder's JSONL, then one line per
/// sample tick with the three Figure-4 series.
fn render_fixture(jsonl: &str, output: &SimOutput) -> String {
    let mut out = jsonl.to_string();
    let suspended = output.suspended_series.samples();
    let utilization = output.utilization_series.samples();
    let waiting = output.waiting_series.samples();
    assert_eq!(suspended.len(), utilization.len());
    assert_eq!(suspended.len(), waiting.len());
    for ((&(t, s), &(_, u)), &(_, w)) in suspended.iter().zip(utilization).zip(waiting) {
        writeln!(
            out,
            r#"{{"t":{},"suspended":{s},"utilization":{u},"waiting":{w}}}"#,
            t.as_minutes()
        )
        .expect("write to string");
    }
    out
}

/// Runs the fixture cell under `config` and renders it.
fn run_fixture_cell(config: SimConfig) -> String {
    let (jsonl, output) = run_streaming_traced(&fixture_params(), config);
    render_fixture(&jsonl, &output)
}

/// The committed fixture; `UPDATE_GOLDEN` rewrites it from the
/// one-worker, unpipelined cell first.
fn golden_fixture() -> String {
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let recorded = run_fixture_cell(fixture_config(Backend::Serial, false, false));
        fs::write(&path, &recorded).expect("write golden fixture");
    }
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; regenerate with UPDATE_GOLDEN=1"))
}

fn assert_same_trace(reference: &str, other: &str, label: &str) {
    if reference == other {
        return;
    }
    for (i, (a, b)) in reference.lines().zip(other.lines()).enumerate() {
        assert_eq!(a, b, "{label}: trace diverges at line {}", i + 1);
    }
    assert_eq!(
        reference.lines().count(),
        other.lines().count(),
        "{label}: trace length diverges"
    );
}

/// The golden matrix: every worker count and both queue backends yield
/// the byte-identical event stream, counters and job records.
#[test]
fn streaming_trace_is_shard_count_independent() {
    let p = params();
    let mut reference_cfg = base_config(Backend::Serial).with_sampling();
    reference_cfg.seed = p.seed;
    let (golden, reference) = run_streaming_traced(&p, reference_cfg.clone());
    assert!(
        reference.counters.completed as f64 > p.expected_jobs() * 0.5,
        "the cell must actually run a calibrated workload"
    );
    assert!(reference.counters.suspensions > 0, "bursts must preempt");

    for shards in [1usize, 2, 4, 20] {
        for reference_queue in [false, true] {
            let mut config = base_config(Backend::Sharded { shards }).with_sampling();
            config.seed = p.seed;
            config.use_reference_queue = reference_queue;
            let label = format!("shards={shards} refq={reference_queue}");
            let (jsonl, output) = run_streaming_traced(&p, config);
            assert_same_trace(&golden, &jsonl, &label);
            assert_eq!(reference.counters, output.counters, "{label}: counters");
            assert_eq!(reference.end_time, output.end_time, "{label}: end time");
            assert_eq!(reference.jobs, output.jobs, "{label}: job records");
            assert_eq!(reference.pool_stats, output.pool_stats, "{label}: pools");
            assert_eq!(
                reference.utilization_series, output.utilization_series,
                "{label}: utilization series"
            );
        }
    }

    let fixture = golden_fixture();
    assert!(
        fixture.contains(r#""ev":"suspend""#) && fixture.contains(r#""ev":"resume""#),
        "the fixture cell must preempt and resume"
    );
    for shards in [1usize, 2, 4, 20] {
        for reference_queue in [false, true] {
            for pipeline in [false, true] {
                let label =
                    format!("fixture shards={shards} refq={reference_queue} pipeline={pipeline}");
                let config = fixture_config(Backend::Sharded { shards }, reference_queue, pipeline);
                assert_same_trace(&fixture, &run_fixture_cell(config), &label);
            }
        }
    }
}

/// With sampling off, a streaming run and a materialized serial run are
/// indistinguishable in every per-job record and every counter.
#[test]
fn streaming_matches_materialized_run() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();

    let mut config = base_config(Backend::Serial);
    config.seed = p.seed;
    let trace = workload.generate(p.seed);
    let materialized = Simulator::new(&site, trace.to_specs(), config.clone()).run_to_completion();

    for backend in [Backend::Serial, Backend::Sharded { shards: 4 }] {
        let mut cfg = config.clone();
        cfg.backend = backend;
        let mut sim = Simulator::new(&site, Vec::new(), cfg);
        // Any observer switches the run into retain mode so SimOutput
        // carries the job records to compare.
        sim.attach_observer(Box::new(TraceRecorder::in_memory()));
        let streamed = sim.run_streaming(&workload, p.seed);
        assert_eq!(materialized.jobs, streamed.jobs, "{backend:?}: job records");
        assert_eq!(
            materialized.counters, streamed.counters,
            "{backend:?}: counters"
        );
        assert_eq!(
            materialized.end_time, streamed.end_time,
            "{backend:?}: end time"
        );
        assert_eq!(
            materialized.pool_stats, streamed.pool_stats,
            "{backend:?}: pools"
        );
    }
}

/// Pipelining leaves every deterministic output unchanged: counters, end
/// time, pool stats and the sampled series of observer-less runs, and the
/// byte-for-byte trace of a recorder-attached run.
#[test]
fn pipelining_is_unobservable() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let run = |pipeline: bool, backend: Backend| {
        let mut config = base_config(backend).with_sampling();
        config.seed = p.seed;
        config.stream_pipeline = pipeline;
        Simulator::new(&site, Vec::new(), config).run_streaming(&workload, p.seed)
    };
    let reference = run(false, Backend::Serial);
    for backend in [Backend::Serial, Backend::Sharded { shards: 4 }] {
        let piped = run(true, backend);
        assert_eq!(reference.counters, piped.counters, "{backend:?}: counters");
        assert_eq!(reference.end_time, piped.end_time, "{backend:?}: end time");
        assert_eq!(reference.pool_stats, piped.pool_stats, "{backend:?}: pools");
        assert_eq!(
            reference.suspended_series, piped.suspended_series,
            "{backend:?}: suspended series"
        );
        assert_eq!(
            reference.utilization_series, piped.utilization_series,
            "{backend:?}: utilization series"
        );
        assert_eq!(
            reference.waiting_series, piped.waiting_series,
            "{backend:?}: waiting series"
        );
        assert!(piped.jobs.is_empty(), "observer-less runs drop records");
    }

    // Hourly ticks leave the minutes in between free to pipeline.
    let traced = |pipeline: bool, backend: Backend| {
        run_streaming_traced(&fixture_params(), fixture_config(backend, false, pipeline))
    };
    let (reference_jsonl, reference) = traced(false, Backend::Serial);
    for backend in [Backend::Serial, Backend::Sharded { shards: 4 }] {
        let (jsonl, piped) = traced(true, backend);
        assert_same_trace(&reference_jsonl, &jsonl, &format!("{backend:?}: traced"));
        assert_eq!(
            reference.jobs, piped.jobs,
            "{backend:?}: traced job records"
        );
        assert_eq!(
            reference.counters, piped.counters,
            "{backend:?}: traced counters"
        );
    }
}

/// A worker per pool at most: 20 requested workers on 8 pools run 8,
/// one profiler lane each beside the coordinator's.
#[test]
fn streaming_workers_are_capped_at_the_pool_count() {
    let p = fixture_params();
    let mut config = fixture_config(Backend::Sharded { shards: 20 }, false, true);
    config.profile = true;
    let output = Simulator::new(&p.build_site(), Vec::new(), config)
        .run_streaming(&p.build_workload(), p.seed);
    let profile = output.profile.expect("profiling on");
    assert_eq!(profile.lane_count(), 1 + usize::from(p.pools));
}

/// A year-long horizon (the paper's full trace window) streams end to
/// end; the trace is never materialized, and both backends agree.
#[test]
fn year_horizon_streams_to_completion() {
    let mut p = PerPoolParams::new(2, 0.02, 365 * 24 * 60);
    p.seed = 7;
    let site = p.build_site();
    let workload = p.build_workload();
    let run = |backend: Backend| {
        let mut config = base_config(backend);
        config.seed = p.seed;
        Simulator::new(&site, Vec::new(), config).run_streaming(&workload, p.seed)
    };
    let serial = run(Backend::Serial);
    let sharded = run(Backend::Sharded { shards: 2 });
    assert_eq!(serial.counters, sharded.counters);
    assert_eq!(serial.end_time, sharded.end_time);
    let expected = p.expected_jobs();
    let done = serial.counters.completed + serial.counters.unrunnable;
    assert!(
        (done as f64) > expected * 0.8 && (done as f64) < expected * 1.2,
        "year-scale job count {done} should be near the calibrated {expected:.0}"
    );
}

/// Configurations outside the streaming fast class are rejected loudly,
/// never silently degraded.
#[test]
#[should_panic(expected = "streaming backend supports only the NoRes fast class")]
fn non_fast_class_policies_are_rejected() {
    let p = params();
    let site = p.build_site();
    let workload = p.build_workload();
    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
    Simulator::new(&site, Vec::new(), config).run_streaming(&workload, p.seed);
}

/// Workloads without the pool-major pinning contract are rejected.
#[test]
#[should_panic(expected = "streaming workload contract violated")]
fn unpinned_workloads_are_rejected() {
    use netbatch::workload::scenarios::ScenarioParams;
    let params = ScenarioParams::normal_week(0.01);
    let site = params.build_site();
    let workload = params.build_workload();
    let config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    Simulator::new(&site, Vec::new(), config).run_streaming(&workload, params.seed);
}
