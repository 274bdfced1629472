//! The four workloads, their inputs and cells, and one iteration of
//! running them: generate each input's trace, then set up, run, summarize
//! and check every cell, one after another.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use netbatch_core::experiment::ExperimentResult;
use netbatch_core::observer::{InvariantChecker, SimObserver};
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::provenance::{KernelProfile, SpanRecorder};
use netbatch_core::simulator::{Backend, RunCounters, SimConfig, Simulator};
use netbatch_core::telemetry::Telemetry;
use netbatch_workload::distributions::{LogNormal, Mixture, Pareto, WeightedChoice};
use netbatch_workload::generator::{AffinityPicker, BurstArrivals, PoissonArrivals};
use netbatch_workload::scenarios::{PerPoolParams, ScenarioParams, SiteSpec};
use netbatch_workload::trace::Trace;
use netbatch_workload::{JobClass, Stream, WorkloadSpec};

use crate::alloc;
use crate::check;
use crate::observe::{CallStats, Timed};
use crate::spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperWeek,
    ScaleoutAny,
    StreamPinned,
    ObservedWeek,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperWeek,
        Workload::ScaleoutAny,
        Workload::StreamPinned,
        Workload::ObservedWeek,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWeek => "paper_week",
            Workload::ScaleoutAny => "scaleout_any",
            Workload::StreamPinned => "stream_pinned",
            Workload::ObservedWeek => "observed_week",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. Pool counts are fixed by the workloads (20 and 200); the
/// scale factors and horizons size the machines and arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Scale of the 20-pool paper week (`paper_week`, `observed_week`).
    pub paper_scale: f64,
    /// Scale and horizon (minutes) of the 200-pool `scaleout_any` site.
    pub scaleout_scale: f64,
    pub scaleout_horizon: u64,
    /// Scale and horizon of the pool-pinned `stream_pinned` sites.
    pub stream_scale: f64,
    pub stream_horizon: u64,
}

impl Size {
    /// What the benchmark measures.
    pub const FULL: Size = Size {
        paper_scale: 0.15,
        scaleout_scale: 0.25,
        scaleout_horizon: 24 * 60,
        stream_scale: 0.5,
        stream_horizon: 2 * 24 * 60,
    };

    /// Seconds-long inputs for the benchmark's own tests.
    #[cfg(test)]
    pub const SMOKE: Size = Size {
        paper_scale: 0.01,
        scaleout_scale: 0.05,
        scaleout_horizon: 6 * 60,
        stream_scale: 0.05,
        stream_horizon: 6 * 60,
    };
}

/// One generated input: a site and the workload submitted to it.
///
/// `spec` is drawn from the benchmark seed. `bursts`, when present, holds
/// the high-priority owner-group streams, drawn from the scenario's own
/// calibrated seed: the burst schedule decides how much restart-storm work
/// a week holds (55k to 320k events per wait-rescheduling cell across
/// seeds at the paper week's scale 0.15), so letting the seed redraw it
/// would swamp every timing with input-size noise. Every seed therefore
/// sees the same bursts over a different background.
pub struct Input {
    pub label: String,
    pub site: SiteSpec,
    pub spec: WorkloadSpec,
    pub seed: u64,
    pub bursts: Option<(WorkloadSpec, u64)>,
}

impl Input {
    pub fn pools(&self) -> usize {
        self.site.pools.len()
    }

    /// The materialized trace: `spec` under the benchmark seed, merged in
    /// submission order with the burst streams under the scenario seed.
    pub fn generate(&self) -> Trace {
        let trace = self.spec.generate(self.seed);
        match &self.bursts {
            None => trace,
            Some((bursts, seed)) => {
                let mut records = trace.records().to_vec();
                records.extend_from_slice(bursts.generate(*seed).records());
                Trace::from_records(records)
            }
        }
    }
}

/// Moves the streams of priority `priority` and above out of `spec`.
fn split_bursts(spec: &mut WorkloadSpec, priority: u8) -> WorkloadSpec {
    let mut bursts = WorkloadSpec::new(spec.start, spec.end);
    let (high, low) = std::mem::take(&mut spec.streams)
        .into_iter()
        .partition(|s| s.class.priority >= priority);
    spec.streams = low;
    bursts.streams = high;
    bursts
}

/// Which kernel runs a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `run_to_completion` on the serial backend.
    Serial,
    /// `run_to_completion` on `Backend::Sharded` (materialized trace).
    Sharded(usize),
    /// `run_streaming` with this many shards (generation inside the run).
    Streaming(usize),
}

impl Kernel {
    pub fn is_serial(self) -> bool {
        self == Kernel::Serial
    }

    fn materialized(self) -> bool {
        !matches!(self, Kernel::Streaming(_))
    }

    /// Worker threads the kernel keeps busy.
    fn threads(self) -> usize {
        match self {
            Kernel::Serial => 1,
            Kernel::Sharded(n) | Kernel::Streaming(n) => n,
        }
    }
}

#[derive(Debug, Clone)]
pub struct CellSpec {
    pub label: String,
    pub input: usize,
    pub initial: InitialKind,
    pub strategy: StrategyKind,
    pub kernel: Kernel,
    /// Telemetry, span recorder and invariant checker attached.
    pub observed: bool,
}

/// A workload's inputs and cells. `references` are the correctness
/// references run once per process before the timed iterations; every
/// cell of an input listed in `same_counters` must report identical run
/// counters, references included.
pub struct Plan {
    pub inputs: Vec<Input>,
    pub cells: Vec<CellSpec>,
    pub references: Vec<CellSpec>,
    pub same_counters: Vec<usize>,
}

fn cell(input: usize, initial: InitialKind, strategy: StrategyKind, kernel: Kernel) -> CellSpec {
    let kernel_label = match kernel {
        Kernel::Serial => "serial".to_string(),
        Kernel::Sharded(n) => format!("sharded{n}"),
        Kernel::Streaming(n) => format!("streaming{n}"),
    };
    CellSpec {
        label: format!("{}x{}/{kernel_label}", initial.name(), strategy.name()),
        input,
        initial,
        strategy,
        kernel,
        observed: false,
    }
}

/// Priority of the high-priority (owner-group) job classes.
const HIGH_PRIORITY: u8 = 10;

/// The paper site at `scale`, normal or high load (cores halved).
pub fn paper_input(scale: f64, high: bool, seed: u64) -> Input {
    let params = ScenarioParams::normal_week(scale);
    let site = params.build_site();
    let mut spec = params.build_workload();
    let bursts = split_bursts(&mut spec, HIGH_PRIORITY);
    Input {
        label: format!("paper20-{}", if high { "high" } else { "normal" }),
        site: if high { site.halved() } else { site },
        spec,
        seed,
        bursts: Some((bursts, params.seed)),
    }
}

/// 200 uniform pools: one unrestricted low-priority stream carrying the
/// whole site's arrival rate, plus a pinned high-priority burst stream per
/// pool, so every submission ranks all 200 pools.
fn scaleout_input(size: Size, seed: u64) -> Input {
    let p = PerPoolParams::new(200, size.scaleout_scale, size.scaleout_horizon);
    let runtime = Mixture::new(
        LogNormal::with_median(p.runtime_median, p.runtime_sigma),
        Pareto::new(2_000.0, 1.5),
        p.tail_weight,
    );
    let rate = p.rate_per_pool * p.scale;
    let low = JobClass::new("site-low", 0, Box::new(runtime.clone()))
        .with_cores(WeightedChoice::new(&[
            (1.0, 0.75),
            (2.0, 0.20),
            (4.0, 0.05),
        ]))
        .with_memory(WeightedChoice::new(&[
            (512.0, 0.3),
            (2048.0, 0.5),
            (6144.0, 0.2),
        ]))
        .with_affinity(AffinityPicker::Any);
    let spec = WorkloadSpec::new(0, p.horizon).stream(Stream::new(
        low,
        Box::new(PoissonArrivals::new(rate * f64::from(p.pools))),
    ));
    let mut bursts = WorkloadSpec::new(0, p.horizon);
    for pool in 0..p.pools {
        let high = JobClass::new(
            format!("pool{pool}-high"),
            HIGH_PRIORITY,
            Box::new(runtime.clone()),
        )
        .with_cores(WeightedChoice::new(&[(1.0, 0.8), (2.0, 0.2)]))
        .with_memory(WeightedChoice::new(&[(1024.0, 0.6), (4096.0, 0.4)]))
        .with_affinity(AffinityPicker::Fixed(vec![pool]));
        bursts = bursts.stream(Stream::new(
            high,
            Box::new(BurstArrivals::new(0.02 * rate, 3.0 * rate, 3_000.0, 400.0)),
        ));
    }
    Input {
        label: "scaleout200-any".into(),
        site: p.build_site(),
        spec,
        seed,
        bursts: Some((bursts, p.seed)),
    }
}

/// `pools` uniform pools with pool-pinned streams (the streaming kernel's
/// fast class).
pub fn pinned_input(pools: u16, size: Size, seed: u64) -> Input {
    let mut p = PerPoolParams::new(pools, size.stream_scale, size.stream_horizon);
    p.seed = seed;
    Input {
        label: format!("pinned{pools}"),
        site: p.build_site(),
        spec: p.build_workload(),
        seed,
        bursts: None,
    }
}

impl Plan {
    /// The workload's inputs for `seed`. `shards` is the streaming shard
    /// count, already capped at the host's cores.
    pub fn new(workload: Workload, size: Size, seed: u64, shards: usize) -> Plan {
        use InitialKind::{RoundRobin as Rr, UtilizationBased as Util};
        use StrategyKind::*;
        let mut plan = Plan {
            inputs: Vec::new(),
            cells: Vec::new(),
            references: Vec::new(),
            same_counters: Vec::new(),
        };
        match workload {
            Workload::PaperWeek => {
                plan.inputs.push(paper_input(size.paper_scale, false, seed));
                plan.inputs.push(paper_input(size.paper_scale, true, seed));
                // Tables 1-5, each (load, initial, strategy) cell once.
                for s in StrategyKind::PAPER_SUSPEND_ONLY {
                    plan.cells.push(cell(0, Rr, s, Kernel::Serial));
                }
                for initial in [Rr, Util] {
                    for s in [
                        NoRes,
                        ResSusUtil,
                        ResSusRand,
                        ResSusWaitUtil,
                        ResSusWaitRand,
                    ] {
                        plan.cells.push(cell(1, initial, s, Kernel::Serial));
                    }
                }
            }
            Workload::ScaleoutAny => {
                plan.inputs.push(scaleout_input(size, seed));
                plan.cells.push(cell(0, Rr, NoRes, Kernel::Serial));
                plan.cells
                    .push(cell(0, Util, ResSusWaitUtil, Kernel::Serial));
            }
            Workload::StreamPinned => {
                plan.inputs.push(pinned_input(200, size, seed));
                plan.inputs.push(pinned_input(20, size, seed));
                plan.cells
                    .push(cell(0, Rr, NoRes, Kernel::Streaming(shards)));
                plan.cells
                    .push(cell(1, Rr, NoRes, Kernel::Streaming(shards)));
                plan.cells.push(cell(0, Rr, NoRes, Kernel::Sharded(shards)));
                for input in [0, 1] {
                    plan.references.push(cell(input, Rr, NoRes, Kernel::Serial));
                    plan.references
                        .push(cell(input, Rr, NoRes, Kernel::Streaming(1)));
                }
                plan.same_counters = vec![0, 1];
            }
            Workload::ObservedWeek => {
                plan.inputs.push(paper_input(size.paper_scale, false, seed));
                for s in [NoRes, ResSusUtil, ResSusWaitUtil] {
                    let mut c = cell(0, Rr, s, Kernel::Serial);
                    c.observed = true;
                    plan.cells.push(c);
                }
            }
        }
        for c in plan.cells.iter_mut().chain(plan.references.iter_mut()) {
            c.label = format!("{}:{}", plan.inputs[c.input].label, c.label);
        }
        plan
    }

    /// The most worker threads any timed cell keeps busy.
    pub fn threads(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.kernel.threads())
            .max()
            .unwrap_or(1)
    }
}

/// Observer callback stats of one observed cell, in attach order:
/// invariant checker, telemetry, span recorder.
pub type ObserverStats = [Arc<CallStats>; 3];

/// Everything one cell run reports.
#[derive(Debug, Default)]
pub struct CellRun {
    pub label: String,
    pub input: usize,
    pub kernel: Option<Kernel>,
    /// `Trace::to_specs` (materialized cells only).
    pub to_specs_s: f64,
    /// `Simulator::new`.
    pub new_s: f64,
    /// `run_to_completion` / `run_streaming`.
    pub run_s: f64,
    /// `ExperimentResult::from_output`.
    pub summarize_s: f64,
    pub setup_allocs: u64,
    pub run_allocs: u64,
    pub submitted: u64,
    pub counters: RunCounters,
    pub digest: u64,
    pub profile: Option<KernelProfile>,
    /// Wasted (rescheduling) minutes and useful runtime minutes.
    pub waste_min: u64,
    pub busy_min: u64,
    pub observers: Option<ObserverStats>,
    pub error: Option<String>,
}

/// One pass over a list of cells.
#[derive(Debug, Default)]
pub struct Iteration {
    pub wall_s: f64,
    pub generate_s: f64,
    pub generate_allocs: u64,
    /// Jobs generated: materialized traces plus streaming-run submissions.
    pub jobs: u64,
    pub peak_bytes: u64,
    pub cells: Vec<CellRun>,
}

impl Iteration {
    pub fn setup_s(&self) -> f64 {
        self.generate_s
            + self
                .cells
                .iter()
                .map(|c| c.to_specs_s + c.new_s)
                .sum::<f64>()
    }

    pub fn run_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run_s).sum()
    }

    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.counters.events).sum()
    }

    pub fn setup_allocs(&self) -> u64 {
        self.generate_allocs + self.cells.iter().map(|c| c.setup_allocs).sum::<u64>()
    }

    pub fn run_allocs(&self) -> u64 {
        self.cells.iter().map(|c| c.run_allocs).sum()
    }

    pub fn digests(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.digest).collect()
    }

    pub fn failures(&self) -> impl Iterator<Item = (&str, &str)> {
        self.cells
            .iter()
            .filter_map(|c| c.error.as_deref().map(|e| (c.label.as_str(), e)))
    }
}

/// Runs `cells` once, input by input, under the root span `root`. With
/// `traced` set, every cell runs with the kernel profiler on and its
/// observers wrapped in call timers; `tracer` records spans if enabled.
pub fn run_iteration(
    plan: &Plan,
    cells: &[CellSpec],
    tracer: &mut Tracer,
    root: &str,
    traced: bool,
) -> Iteration {
    let mut it = Iteration::default();
    alloc::reset_peak();
    let g_root = tracer.open(root, None);
    for (idx, input) in plan.inputs.iter().enumerate() {
        let mine: Vec<&CellSpec> = cells.iter().filter(|c| c.input == idx).collect();
        if mine.is_empty() {
            continue;
        }
        let trace = mine.iter().any(|c| c.kernel.materialized()).then(|| {
            let a = alloc::alloc_calls();
            let g = tracer.open("workload.generate", None);
            let trace = input.generate();
            it.generate_s += tracer.close(g);
            it.generate_allocs += alloc::alloc_calls() - a;
            it.jobs += trace.len() as u64;
            trace
        });
        for c in mine {
            let id = it.cells.len();
            let g = tracer.open("cell", Some(id));
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_cell(input, c, id, trace.as_ref(), tracer, traced)
            }));
            tracer.close(g);
            let run = run.unwrap_or_else(|panic| CellRun {
                label: c.label.clone(),
                input: c.input,
                error: Some(format!("panicked: {}", panic_message(&panic))),
                ..CellRun::default()
            });
            if matches!(c.kernel, Kernel::Streaming(_)) {
                it.jobs += run.submitted;
            }
            it.cells.push(run);
        }
    }
    it.wall_s = tracer.close(g_root);
    it.peak_bytes = alloc::peak_bytes();
    it
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic".into())
}

fn run_cell(
    input: &Input,
    c: &CellSpec,
    id: usize,
    trace: Option<&Trace>,
    tracer: &mut Tracer,
    traced: bool,
) -> CellRun {
    let mut run = CellRun {
        label: c.label.clone(),
        input: c.input,
        kernel: Some(c.kernel),
        ..CellRun::default()
    };
    let mut config = SimConfig::new(c.initial, c.strategy);
    config.profile = traced;
    config.backend = match c.kernel {
        Kernel::Serial | Kernel::Streaming(1) => Backend::Serial,
        Kernel::Sharded(n) | Kernel::Streaming(n) => Backend::Sharded { shards: n },
    };
    if c.observed && !traced {
        config.check_invariants = true;
        config.telemetry = true;
        config.spans = true;
    }
    let a = alloc::alloc_calls();
    let specs = match trace {
        Some(t) if c.kernel.materialized() => {
            let g = tracer.open("trace.to_specs", Some(id));
            let specs = t.to_specs();
            run.to_specs_s = tracer.close(g);
            specs
        }
        _ => Vec::new(),
    };
    let g = tracer.open("simulator.new", Some(id));
    let mut sim = Simulator::new(&input.site, specs, config);
    run.new_s = tracer.close(g);
    if c.observed && traced {
        // Same observers, same order as the config switches attach them.
        let stats: ObserverStats = Default::default();
        let observers: [Box<dyn SimObserver>; 3] = [
            Box::new(InvariantChecker::new()),
            Box::new(Telemetry::new(c.strategy.name(), c.initial.name())),
            Box::new(SpanRecorder::new(c.strategy.name(), c.initial.name())),
        ];
        for (obs, stat) in observers.into_iter().zip(&stats) {
            sim.attach_observer(Box::new(Timed::new(obs, Arc::clone(stat))));
        }
        run.observers = Some(stats);
    }
    run.setup_allocs = alloc::alloc_calls() - a;

    let a = alloc::alloc_calls();
    let g = tracer.open("simulator.run", Some(id));
    let mut out = match c.kernel {
        Kernel::Streaming(_) => sim.run_streaming(&input.spec, input.seed),
        _ => sim.run_to_completion(),
    };
    run.run_s = tracer.close(g);
    run.run_allocs = alloc::alloc_calls() - a;
    run.counters = out.counters;
    run.profile = out.profile.take();
    if let (Some(profile), true) = (&run.profile, c.kernel.is_serial()) {
        if let Some(span) = tracer.last("simulator.run") {
            for (lane, nanos) in lanes(profile) {
                tracer.lay_out(span, &format!("kernel.{lane}"), nanos);
            }
        }
    }

    let g = tracer.open("check", Some(id));
    let checked = match trace {
        Some(t) if c.kernel.materialized() => {
            run.submitted = t.len() as u64;
            run.busy_min = t.iter().map(|r| r.runtime_minutes).sum();
            let observers = std::mem::take(&mut out.observers);
            let end = out.end_time.as_minutes();
            let g = tracer.open("metrics.summarize", Some(id));
            let result = ExperimentResult::from_output(c.initial, c.strategy, out);
            run.summarize_s = tracer.close(g);
            run.waste_min = result.waste.resched.as_minutes();
            run.digest = check::cell_digest(&run.counters, end, Some(&result.paper_row()));
            check::conserved(&run.counters, run.submitted).and_then(|()| {
                if c.observed {
                    check_observers(&observers, &result)
                } else {
                    Ok(())
                }
            })
        }
        _ => {
            // Streaming keeps no job records; its counters are checked
            // against the materialized references instead.
            run.submitted = run.counters.completed + run.counters.unrunnable;
            run.digest = check::cell_digest(&run.counters, out.end_time.as_minutes(), None);
            Ok(())
        }
    };
    tracer.close(g);
    run.error = checked.err();
    run
}

/// On observed cells: the invariant checker saw the run (it panics on
/// any violation) and the telemetry summary reconciles with the
/// event-sourced result.
fn check_observers(observers: &[Box<dyn SimObserver>], r: &ExperimentResult) -> Result<(), String> {
    let find = |f: &dyn Fn(&dyn std::any::Any) -> bool| observers.iter().any(|o| f(o.as_any()));
    let checked = find(&|o| {
        o.downcast_ref::<InvariantChecker>()
            .is_some_and(|c| c.events_seen() > 0)
    });
    if !checked {
        return Err("invariant checker missing or saw no events".into());
    }
    if !find(&|o| {
        o.downcast_ref::<SpanRecorder>()
            .is_some_and(|s| s.span_count() > 0)
    }) {
        return Err("span recorder missing or recorded no spans".into());
    }
    let tel = observers
        .iter()
        .find_map(|o| o.as_any().downcast_ref::<Telemetry>())
        .ok_or("telemetry missing")?;
    let s = tel.summary();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
    let ok = s.total_jobs == r.total_jobs
        && s.suspended_jobs == r.suspended_jobs()
        && close(s.suspend_rate, r.suspend_rate)
        && close(s.avg_ct_all, r.avg_ct_all)
        && close(s.avg_ct_suspended, r.avg_ct_suspended)
        && close(s.avg_st, r.avg_st)
        && close(s.avg_wct, r.avg_wct())
        && s.end_minutes == r.end_time.as_minutes();
    if ok {
        Ok(())
    } else {
        Err(format!(
            "telemetry summary {s:?} does not reconcile with the result"
        ))
    }
}

/// The profiler's lanes as `(name, nanos)`, read from its folded-stack
/// rendering (microsecond resolution). Lanes are named by their last
/// stack frame, prefixed with `shardN.` for worker lanes.
pub fn lanes(profile: &KernelProfile) -> Vec<(String, u64)> {
    profile
        .render_folded()
        .lines()
        .filter_map(|line| {
            let (stack, micros) = line.rsplit_once(' ')?;
            let micros: u64 = micros.parse().ok()?;
            let mut frames = stack.split(';').skip(1);
            let lane = frames.next()?;
            let phase = frames.next()?;
            let name = if lane.starts_with("shard") {
                format!("{lane}.{phase}")
            } else {
                phase.to_string()
            };
            Some((name, micros * 1_000))
        })
        .collect()
}
