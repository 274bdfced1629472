//! Differential conformance suite: a materialized run configured with
//! `Backend::Sharded` must be **observationally equal** to one configured
//! with `Backend::Serial` on random configurations — not just on the
//! committed golden cells. Both execute on the serial kernel (the shard
//! count only sizes the streaming kernel's workers), so the suite pins
//! that the backend setting never leaks into a materialized run.
//!
//! Each case draws a random workload, a random `SimConfig` across all
//! nine strategies, both initial schedulers, staleness/overhead/restart
//! knobs, an optional random fault model with the hardened resilience
//! policy toggled freely, and a random shard count. The two runs must
//! then agree on the full JSONL event trace (byte for
//! byte), the run counters, and every derived paper metric — all while
//! the `InvariantChecker` rides along on both backends.

use netbatch::cluster::ids::PoolId;
use netbatch::cluster::pool::PoolConfig;
use netbatch::core::experiment::ExperimentResult;
use netbatch::core::faults::{FaultModel, ResiliencePolicy};
use netbatch::core::observer::TraceRecorder;
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::provenance::SpanRecorder;
use netbatch::core::simulator::{Backend, SimConfig, Simulator};
use netbatch::sim_engine::time::SimDuration;
use netbatch::workload::scenarios::SiteSpec;
use netbatch::workload::trace::{Trace, TraceRecord};
use proptest::prelude::*;

fn small_site(pools: u16, machines: u32, cores: u32) -> SiteSpec {
    SiteSpec {
        pools: (0..pools)
            .map(|p| PoolConfig::uniform(PoolId(p), machines, cores, 8192))
            .collect(),
    }
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..2000,                                // submit minute
        1u64..400,                                 // runtime
        1u32..3,                                   // cores
        prop::sample::select(vec![0u8, 0, 0, 10]), // mostly low, some high
        prop::bool::ANY,                           // restricted affinity?
    )
        .prop_map(
            |(submit, runtime, cores, priority, restricted)| TraceRecord {
                submit_minute: submit,
                runtime_minutes: runtime,
                cores,
                memory_mb: 512,
                priority,
                affinity: if restricted && priority >= 10 {
                    vec![0]
                } else {
                    vec![]
                },
                task: None,
            },
        )
}

/// All nine strategies of the paper: the conformance contract covers the
/// full policy surface, not just the fast-classifiable NoRes cell.
fn arb_strategy() -> impl Strategy<Value = StrategyKind> {
    prop::sample::select(vec![
        StrategyKind::NoRes,
        StrategyKind::ResSusUtil,
        StrategyKind::ResSusRand,
        StrategyKind::ResSusWaitUtil,
        StrategyKind::ResSusWaitRand,
        StrategyKind::ResSusQueue,
        StrategyKind::ResSusWaitSmart,
        StrategyKind::MigrateSusUtil,
        StrategyKind::DupSusUtil,
    ])
}

fn arb_initial() -> impl Strategy<Value = InitialKind> {
    prop::sample::select(vec![InitialKind::RoundRobin, InitialKind::UtilizationBased])
}

/// An optional stochastic fault model: machine churn with occasional
/// whole-pool outages and flaky repeat offenders.
fn arb_fault_model() -> impl Strategy<Value = Option<FaultModel>> {
    prop::option::of((4u64..72, 1u64..12, 0u32..3, 0u64..8).prop_map(
        |(mtbf, mttr, outages, flaky_pct)| {
            FaultModel::new(
                SimDuration::from_hours(mtbf),
                SimDuration::from_hours(mttr),
                SimDuration::from_days(3),
            )
            .with_pool_outages(outages, SimDuration::from_hours(mttr))
            .with_flaky(flaky_pct as f64 / 100.0, 8)
        },
    ))
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        arb_initial(),
        arb_strategy(),
        0u64..1000,                                  // seed
        0u64..30,                                    // restart overhead (minutes)
        prop::sample::select(vec![0u64, 0, 15, 60]), // view staleness
        prop::option::of(1u32..4),                   // max restarts
        arb_fault_model(),
        prop::bool::ANY, // hardened resilience?
    )
        .prop_map(
            |(initial, strategy, seed, overhead, staleness, max_restarts, faults, hardened)| {
                let mut config = SimConfig::new(initial, strategy);
                config.seed = seed;
                config.restart_overhead = SimDuration::from_minutes(overhead);
                config.view_staleness = SimDuration::from_minutes(staleness);
                config.max_restarts = max_restarts;
                config.fault_model = faults;
                config.resilience = if hardened {
                    ResiliencePolicy::hardened()
                } else {
                    ResiliencePolicy::disabled()
                };
                // Both runs carry the full observer stack: the invariant
                // checker must hold on either backend.
                config.check_invariants = true;
                config
            },
        )
}

/// Runs one cell and returns everything observable about it: the JSONL
/// trace stream and the derived paper metrics (which carry the raw run
/// counters and end time).
fn run_cell(
    site: &SiteSpec,
    records: &[TraceRecord],
    mut config: SimConfig,
    backend: Backend,
) -> (String, ExperimentResult) {
    let (initial, strategy) = (config.initial, config.strategy);
    config.backend = backend;
    let trace = Trace::from_records(records.to_vec());
    let mut sim = Simulator::new(site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let output = sim.run_to_completion();
    let jsonl = output
        .observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string();
    let result = ExperimentResult::from_output(initial, strategy, output);
    (jsonl, result)
}

/// Asserts two JSONL streams match, reporting the first diverging line.
fn assert_same_trace(serial: &str, sharded: &str, shards: usize) -> Result<(), TestCaseError> {
    if serial == sharded {
        return Ok(());
    }
    for (i, (a, b)) in serial.lines().zip(sharded.lines()).enumerate() {
        prop_assert_eq!(
            a,
            b,
            "sharded x{} trace diverges from serial at line {}",
            shards,
            i + 1
        );
    }
    prop_assert_eq!(
        serial.lines().count(),
        sharded.lines().count(),
        "sharded x{} trace length diverges",
        shards
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any configuration the sharded backend setting is a drop-in
    /// replacement: same events in the same order, same counters, same
    /// metrics.
    #[test]
    fn prop_sharded_equals_serial(
        records in prop::collection::vec(arb_record(), 1..50),
        config in arb_config(),
        shards in 1usize..6,
    ) {
        let site = small_site(3, 2, 2);
        let (trace_a, res_a) = run_cell(&site, &records, config.clone(), Backend::Serial);
        let (trace_b, res_b) = run_cell(&site, &records, config, Backend::Sharded { shards });

        assert_same_trace(&trace_a, &trace_b, shards)?;
        prop_assert_eq!(res_a.counters, res_b.counters, "run counters diverge");
        prop_assert_eq!(res_a.end_time, res_b.end_time, "end time diverges");

        // Derived paper metrics must agree to the exact bit — they are
        // pure functions of the run, so any drift is a kernel bug, not
        // floating-point noise.
        prop_assert_eq!(res_a.total_jobs, res_b.total_jobs);
        prop_assert_eq!(res_a.suspend_rate.to_bits(), res_b.suspend_rate.to_bits());
        prop_assert_eq!(res_a.avg_ct_suspended.to_bits(), res_b.avg_ct_suspended.to_bits());
        prop_assert_eq!(res_a.avg_ct_all.to_bits(), res_b.avg_ct_all.to_bits());
        prop_assert_eq!(res_a.avg_st.to_bits(), res_b.avg_st.to_bits());
        prop_assert_eq!(res_a.avg_wait_all.to_bits(), res_b.avg_wait_all.to_bits());
        prop_assert_eq!(res_a.avg_wct().to_bits(), res_b.avg_wct().to_bits());
        let times_a: Vec<u64> = res_a.suspension_times.iter().map(|t| t.to_bits()).collect();
        let times_b: Vec<u64> = res_b.suspension_times.iter().map(|t| t.to_bits()).collect();
        prop_assert_eq!(times_a, times_b, "suspension time distributions diverge");
    }
}

/// Runs one cell with the [`SpanRecorder`] attached and returns the
/// rendered spans JSONL.
fn run_spans(
    site: &SiteSpec,
    records: &[TraceRecord],
    mut config: SimConfig,
    backend: Backend,
    reference_queue: bool,
) -> String {
    config.backend = backend;
    config.spans = true;
    config.use_reference_queue = reference_queue;
    let trace = Trace::from_records(records.to_vec());
    let output = Simulator::new(site, trace.to_specs(), config).run_to_completion();
    output
        .observer::<SpanRecorder>()
        .expect("span recorder attached")
        .render_jsonl()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Span trees (segments, causes, and the decision audit) must come
    /// out byte-identical for the serial setting and the sharded setting
    /// at shards {1, 2, 4, 20}, on both event-queue backends — no backend
    /// setting may reorder, drop or re-cause a single segment.
    #[test]
    fn prop_span_trees_identical_across_backends(
        records in prop::collection::vec(arb_record(), 1..50),
        config in arb_config(),
    ) {
        let site = small_site(3, 2, 2);
        let reference = run_spans(&site, &records, config.clone(), Backend::Serial, false);
        let heap = run_spans(&site, &records, config.clone(), Backend::Serial, true);
        assert_same_trace(&reference, &heap, 0)?;
        for &shards in &[1usize, 2, 4, 20] {
            for &ref_queue in &[false, true] {
                let got = run_spans(
                    &site,
                    &records,
                    config.clone(),
                    Backend::Sharded { shards },
                    ref_queue,
                );
                assert_same_trace(&reference, &got, shards)?;
                prop_assert_eq!(
                    &reference,
                    &got,
                    "span JSONL diverges at {} shards (reference queue: {})",
                    shards,
                    ref_queue
                );
            }
        }
    }
}
