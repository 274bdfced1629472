//! Golden-trace conformance: the recorded event stream for one fixed cell
//! of Table 1 (NoRes strategy, round-robin initial scheduler, normal-load
//! week at a small scale) must stay **byte-identical** to the committed
//! fixture. Any change to event ordering, payload rendering, or simulator
//! scheduling shows up here as a one-line diff before it can silently
//! shift the paper's tables. A chaos cell pins the observer outputs the
//! same way: its spans JSONL and Prometheus exposition must replay byte
//! for byte.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the fixture diff like any other code change.

use netbatch::cluster::snapshot::PoolSnapshot;
use netbatch::core::faults::{FaultModel, LifecycleModel, ResiliencePolicy};
use netbatch::core::observer::{ObsCtx, ObsEvent, SimObserver, TraceRecorder};
use netbatch::core::policy::{InitialKind, StrategyKind};
use netbatch::core::provenance::SpanRecorder;
use netbatch::core::simulator::{SimConfig, SimOutput, Simulator};
use netbatch::core::telemetry::Telemetry;
use netbatch::sim_engine::time::{SimDuration, SimTime};
use netbatch::workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch::workload::trace::Trace;
use std::fs;

/// Scale for the fixture cell: small enough to keep the fixture reviewable,
/// large enough to exercise dispatch, queueing, suspension, and completion.
const GOLDEN_SCALE: f64 = 0.002;

/// Fixture path relative to the crate root.
const GOLDEN_PATH: &str = "tests/golden/table1_nores_rr.jsonl";

/// Runs `trace` on `site` with an in-memory recorder attached (next to
/// whatever observers `config` switches on) and returns the run output.
fn run_recorded(site: &SiteSpec, trace: &Trace, config: SimConfig) -> SimOutput {
    let mut sim = Simulator::new(site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    sim.run_to_completion()
}

/// Runs `trace` on `site` with a recorder attached and returns the JSONL
/// event stream.
fn record(site: &SiteSpec, trace: &Trace, config: SimConfig) -> String {
    run_recorded(site, trace, config)
        .observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string()
}

/// Runs the Table 1 NoRes/round-robin cell with a recorder (and the
/// invariant checker riding along) and returns the JSONL event stream.
fn record_table1_nores_rr_on(use_reference_queue: bool) -> String {
    let params = ScenarioParams::normal_week(GOLDEN_SCALE);
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    config.use_reference_queue = use_reference_queue;
    record(&params.build_site(), &params.generate_trace(), config)
}

fn record_table1_nores_rr() -> String {
    record_table1_nores_rr_on(false)
}

#[test]
fn table1_nores_rr_trace_matches_golden_fixture() {
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let recorded = record_table1_nores_rr();
    assert!(
        recorded.lines().count() > 100,
        "fixture scale too small to be a meaningful conformance check"
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &recorded).expect("write golden fixture");
        println!("golden fixture regenerated at {path}");
        return;
    }

    assert_matches_fixture(GOLDEN_PATH, &recorded, "timer wheel");
}

#[test]
fn reference_heap_queue_reproduces_the_golden_fixture() {
    // The timer-wheel and the reference binary-heap event queue are
    // contractually identical; prove it end to end by replaying the golden
    // cell on the heap backend. Both backends must match the committed
    // fixture byte for byte.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // The sibling test owns regeneration; this one only compares.
        return;
    }
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_trace")
    });
    let on_heap = record_table1_nores_rr_on(true);
    assert!(
        on_heap == golden,
        "reference-heap backend diverges from the golden fixture — the \
         two event-queue implementations are no longer equivalent"
    );
}

#[test]
fn telemetry_rides_along_without_perturbing_the_trace() {
    // Same cell, but with the telemetry observer attached (and never
    // exported): the recorded stream must still match the fixture byte
    // for byte — telemetry is measurement, not mechanism.
    let params = ScenarioParams::normal_week(GOLDEN_SCALE);
    let site = params.build_site();
    let trace = params.generate_trace();
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes);
    config.check_invariants = true;
    config.telemetry = true;
    let mut sim = Simulator::new(&site, trace.to_specs(), config);
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    let out = sim.run_to_completion();
    let recorded = out
        .observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string();
    let tel = out.observer::<Telemetry>().expect("telemetry attached");
    assert!(tel.summary().total_jobs > 0, "telemetry observed the run");

    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // The sibling test owns regeneration; this one only compares.
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_trace")
    });
    assert!(
        recorded == golden,
        "attaching telemetry changed the recorded event stream"
    );
}

#[test]
fn golden_fixture_lines_are_well_formed_jsonl() {
    let path = format!("{}/{GOLDEN_PATH}", env!("CARGO_MANIFEST_DIR"));
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_trace")
    });
    let mut last_t: u64 = 0;
    for (i, line) in golden.lines().enumerate() {
        assert!(
            line.starts_with("{\"t\":") && line.ends_with('}'),
            "line {} is not a JSON object: {line}",
            i + 1
        );
        assert!(
            line.contains("\"ev\":\""),
            "line {} has no event kind: {line}",
            i + 1
        );
        // Timestamps are non-decreasing: the recorder sees events in
        // simulation order.
        let t: u64 = line["{\"t\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("line {} has no numeric timestamp: {line}", i + 1));
        assert!(t >= last_t, "line {} goes back in time: {line}", i + 1);
        last_t = t;
    }
    assert_eq!(
        golden
            .lines()
            .next()
            .map(|l| l.contains("\"ev\":\"submit\"")),
        Some(true),
        "a trace must open with the first submission"
    );
}

/// Scale for the stale-view fixture: large enough that the 30-minute view
/// is reused across many submissions and suspensions.
const STALE_VIEW_SCALE: f64 = 0.02;

/// Fixture for a round-robin cell whose rescheduling policy reads a stale
/// cluster view. Initial routing never reads the view, but at non-zero
/// staleness the snapshot taken at a submission is the one later
/// suspension decisions reuse until it ages out, so skipping that capture
/// would change which pools ResSusUtil picks.
const STALE_VIEW_PATH: &str = "tests/golden/stale_view_rr_ressusutil.jsonl";

/// Runs RR × ResSusUtil on the high-load (halved) site with a 30-minute
/// view staleness and returns the JSONL event stream.
fn record_stale_view_rr_ressusutil_on(use_reference_queue: bool) -> String {
    let params = ScenarioParams::normal_week(STALE_VIEW_SCALE);
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusUtil);
    config.view_staleness = SimDuration::from_minutes(30);
    config.use_reference_queue = use_reference_queue;
    record(
        &params.build_site().halved(),
        &params.generate_trace(),
        config,
    )
}

/// Compares `recorded` with the fixture at `rel_path`, reporting the first
/// diverging line so the failure is readable without dumping two
/// multi-thousand-line streams.
fn assert_matches_fixture(rel_path: &str, recorded: &str, label: &str) {
    let path = format!("{}/{rel_path}", env!("CARGO_MANIFEST_DIR"));
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test --test golden_trace")
    });
    if recorded == golden {
        return;
    }
    for (i, (got, want)) in recorded.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "[{label}] trace diverges from {rel_path} at line {}",
            i + 1
        );
    }
    panic!(
        "[{label}] trace length diverges from {rel_path}: {} vs {} lines",
        recorded.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn stale_view_rr_ressusutil_trace_matches_golden_fixture() {
    let recorded = record_stale_view_rr_ressusutil_on(false);
    assert!(
        recorded.contains("\"ev\":\"restart_from_suspend\""),
        "the stale-view cell must exercise rescheduling"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/{STALE_VIEW_PATH}", env!("CARGO_MANIFEST_DIR"));
        fs::write(&path, &recorded).expect("write golden fixture");
        println!("golden fixture regenerated at {path}");
        return;
    }
    assert_matches_fixture(STALE_VIEW_PATH, &recorded, "timer wheel");
}

#[test]
fn reference_heap_queue_reproduces_the_stale_view_fixture() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // The sibling test owns regeneration; this one only compares.
        return;
    }
    let recorded = record_stale_view_rr_ressusutil_on(true);
    assert_matches_fixture(STALE_VIEW_PATH, &recorded, "reference heap");
}

/// Scale for the observed chaos cell: small enough that each rendered
/// fixture stays under 500 KB (the spans file is 2.7 MB at the provenance
/// suite's 0.02), large enough that the cell still suspends, faults,
/// evacuates and backs off.
const CHAOS_OBSERVED_SCALE: f64 = 0.0014;

/// Span trees (spans JSONL) of the observed chaos cell.
const CHAOS_SPANS_PATH: &str = "tests/golden/chaos_observed_spans.jsonl";

/// Prometheus exposition of the observed chaos cell.
const CHAOS_PROM_PATH: &str = "tests/golden/chaos_observed_metrics.prom";

/// The chaos cell of `tests/provenance.rs` (faults, maintenance and rolling
/// lifecycle windows, hardened resilience with evacuation, on the halved
/// site) with telemetry and the span recorder attached. Returns the spans
/// JSONL and the Prometheus exposition.
fn render_chaos_observed() -> (String, String) {
    let params = ScenarioParams::normal_week(CHAOS_OBSERVED_SCALE);
    let mut config = SimConfig::new(InitialKind::RoundRobin, StrategyKind::ResSusWaitUtil);
    config.telemetry = true;
    config.spans = true;
    config.seed = 7;
    config.fault_model = Some(FaultModel::new(
        SimDuration::from_hours(24),
        SimDuration::from_hours(6),
        SimDuration::from_days(8),
    ));
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    config.lifecycle = Some(
        LifecycleModel::new(SimDuration::from_days(8))
            .with_maintenance(SimDuration::from_hours(48), SimDuration::from_hours(2))
            .with_rolling(1, 0.25, SimDuration::from_hours(1)),
    );
    config.health_aware = true;
    let out = run_recorded(
        &params.build_site().halved(),
        &params.generate_trace(),
        config,
    );
    let spans = out
        .observer::<SpanRecorder>()
        .expect("span recorder attached via SimConfig")
        .render_jsonl();
    let prom = out
        .observer::<Telemetry>()
        .expect("telemetry attached via SimConfig")
        .render_prom();
    (spans, prom)
}

#[test]
fn chaos_spans_and_metrics_match_golden_fixtures() {
    let (spans, prom) = render_chaos_observed();
    for needle in [
        "\"type\":\"policy\"",
        "\"type\":\"fault\"",
        "\"type\":\"evacuation\"",
        "\"phase\":\"backoff\"",
    ] {
        assert!(spans.contains(needle), "chaos cell never recorded {needle}");
    }
    assert!(prom.contains("netbatch_span_open 0"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (rel, text) in [(CHAOS_SPANS_PATH, &spans), (CHAOS_PROM_PATH, &prom)] {
            let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
            fs::write(&path, text).expect("write golden fixture");
            println!("golden fixture regenerated at {path}");
        }
        return;
    }
    assert_matches_fixture(CHAOS_SPANS_PATH, &spans, "spans");
    assert_matches_fixture(CHAOS_PROM_PATH, &prom, "metrics");
}

/// Scale for the utilization-based chaos fixture: small enough to keep the
/// fixture under 500 KB, large enough that machines fail, drain and come
/// back while the scheduler ranks pools by effective utilization.
const UTIL_CHAOS_SCALE: f64 = 0.003;

/// Fixture for utilization-based routing on a faulty, lifecycle-managed,
/// health-aware site: every routing decision reads pool versions bumped by
/// fail, restore, drain and health changes.
const UTIL_CHAOS_PATH: &str = "tests/golden/util_chaos_rswu.jsonl";

/// Counts pool choices made while some pool had no effective capacity
/// but still ran work, the state in which health-aware utilization reads
/// `INFINITY`.
#[derive(Debug, Default)]
struct InfiniteLoadProbe {
    choices: u64,
}

impl SimObserver for InfiniteLoadProbe {
    fn on_event(&mut self, _now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        if matches!(event, ObsEvent::PoolChosen { .. })
            && ctx.pools.iter().any(|p| {
                PoolSnapshot::capture(p)
                    .effective_utilization()
                    .is_infinite()
            })
        {
            self.choices += 1;
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Runs Util × ResSusWaitUtil, health-aware, with stochastic faults, the
/// standard lifecycle model (maintenance drains, a rolling wave, health
/// cordons, flaky machines) and hardened resilience with evacuation, on
/// the halved site. Returns the JSONL event stream and how many pool
/// choices saw an infinitely loaded pool.
fn record_util_chaos_rswu() -> (String, u64) {
    let params = ScenarioParams::normal_week(UTIL_CHAOS_SCALE);
    let mut config = SimConfig::new(InitialKind::UtilizationBased, StrategyKind::ResSusWaitUtil);
    config.check_invariants = true;
    config.health_aware = true;
    config.fault_model = Some(FaultModel::new(
        SimDuration::from_hours(24),
        SimDuration::from_hours(4),
        SimDuration::from_days(8),
    ));
    config.lifecycle =
        Some(LifecycleModel::standard(SimDuration::from_days(7)).with_flaky(0.05, 16));
    config.resilience = ResiliencePolicy::hardened().with_evacuation();
    let mut sim = Simulator::new(
        &params.build_site().halved(),
        params.generate_trace().to_specs(),
        config,
    );
    sim.attach_observer(Box::new(TraceRecorder::in_memory()));
    sim.attach_observer(Box::new(InfiniteLoadProbe::default()));
    let out = sim.run_to_completion();
    let trace = out
        .observer::<TraceRecorder>()
        .expect("recorder attached")
        .lines()
        .to_string();
    let probe = out.observer::<InfiniteLoadProbe>().expect("probe attached");
    (trace, probe.choices)
}

#[test]
fn util_chaos_rswu_trace_matches_golden_fixture() {
    let (recorded, infinite_choices) = record_util_chaos_rswu();
    for needle in [
        "\"ev\":\"machine_down\"",
        "\"ev\":\"machine_up\"",
        "\"ev\":\"machine_draining\"",
        "\"ev\":\"retry_backoff\"",
        "\"ev\":\"restart_from_wait\"",
    ] {
        assert!(
            recorded.contains(needle),
            "util chaos cell never recorded {needle}"
        );
    }
    assert!(
        infinite_choices > 0,
        "no pool choice saw a pool with running work and no effective capacity"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/{UTIL_CHAOS_PATH}", env!("CARGO_MANIFEST_DIR"));
        fs::write(&path, &recorded).expect("write golden fixture");
        println!("golden fixture regenerated at {path}");
        return;
    }
    assert_matches_fixture(UTIL_CHAOS_PATH, &recorded, "util chaos");
}

/// Scale for the utilization-based stale-view fixture (kept under 500 KB).
const STALE_VIEW_UTIL_SCALE: f64 = 0.009;

/// Fixture for utilization-based routing over a 30-minute stale view: the
/// scheduler ranks pools by a snapshot that the view refresh rebuilds from
/// only the pools that changed since it was last taken.
const STALE_VIEW_UTIL_PATH: &str = "tests/golden/stale_view_util_ressusutil.jsonl";

#[test]
fn stale_view_util_ressusutil_trace_matches_golden_fixture() {
    let params = ScenarioParams::normal_week(STALE_VIEW_UTIL_SCALE);
    let mut config = SimConfig::new(InitialKind::UtilizationBased, StrategyKind::ResSusUtil);
    config.view_staleness = SimDuration::from_minutes(30);
    let recorded = record(
        &params.build_site().halved(),
        &params.generate_trace(),
        config,
    );
    assert!(
        recorded.contains("\"ev\":\"restart_from_suspend\""),
        "the stale-view cell must exercise rescheduling"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/{STALE_VIEW_UTIL_PATH}", env!("CARGO_MANIFEST_DIR"));
        fs::write(&path, &recorded).expect("write golden fixture");
        println!("golden fixture regenerated at {path}");
        return;
    }
    assert_matches_fixture(STALE_VIEW_UTIL_PATH, &recorded, "stale util view");
}
