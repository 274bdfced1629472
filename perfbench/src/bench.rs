//! One benchmark run: the timed (untraced) iterations that give the
//! end-to-end metrics, or the traced run that gives the per-layer ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::calib;
use crate::check;
use crate::host;
use crate::layers::{self, Replay};
use crate::spans::{self, Span, Tracer};
use crate::workloads::{
    lanes, paper_input, pinned_input, run_iteration, CellRun, CellSpec, Input, Iteration, Kernel,
    Plan, Size, Workload,
};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_heap_mib", "MiB"),
    ("allocs_per_event", "allocs/event"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workload.generate_s", "s"),
    ("workload.jobs", "count"),
    ("simulator.new_s", "s"),
    ("queue.replay_ns_per_op", "ns"),
    ("queue.ops", "count"),
    ("index.first_fit_ns", "ns"),
    ("snapshot.capture_us_20", "us"),
    ("snapshot.capture_us_200", "us"),
    ("policy.select_ns", "ns"),
    ("policy.restarts", "count"),
    ("policy.restart_waste_frac", "ratio"),
    ("kernel.submit_s", "s"),
    ("kernel.complete_s", "s"),
    ("kernel.wait_check_s", "s"),
    ("kernel.suspend_resume_s", "s"),
    ("kernel.sample_s", "s"),
    ("kernel.other_s", "s"),
    ("kernel.unattributed_s", "s"),
    ("kernel.events", "count"),
    ("streaming.coord_s", "s"),
    ("streaming.worker_busy_s", "s"),
    ("streaming.parallel_fraction", "ratio"),
    ("streaming.speedup_x2", "x"),
    ("observer.telemetry_s", "s"),
    ("observer.spans_s", "s"),
    ("observer.checker_s", "s"),
    ("observer.calls", "count"),
    ("metrics.summarize_s", "s"),
    ("setup.allocs", "count"),
    ("run.allocs", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_frac", "ratio"),
    ("host.cores", "count"),
];

/// Timed iterations per run, at least (more while `--seconds` lasts).
const MIN_ITERATIONS: usize = 3;
/// Rounds of the 1-shard vs 2-shard streaming comparison.
const SPEEDUP_ROUNDS: usize = 3;
/// Policy selections replayed per cell.
const POLICY_CALLS: usize = 20_000;
/// Pools visited per snapshot replay (captures = visits / pools).
const CAPTURE_POOL_VISITS: u64 = 2_000_000;

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub min_iterations: usize,
    /// Where the traced run writes its spans (`None`: keep them in memory).
    pub out_dir: Option<String>,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::PaperWeek,
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::FULL,
            min_iterations: MIN_ITERATIONS,
            out_dir: Some(".perfbench_out".into()),
        };
        let mut workload = None;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| {
                        bad("expected paper_week, scaleout_any, stream_pinned or observed_week")
                    })?)
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected a non-negative number"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// What one run prints: the result line plus commentary lines before it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    /// The traced run's spans, in recording order.
    pub spans: Vec<Span>,
    /// Wall time of the traced iteration (the `traced` root span).
    pub traced_wall_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn record(&mut self, it: &Iteration) {
        self.attempted += it.cells.len() as u64;
        for (label, err) in it.failures() {
            self.failed += 1;
            self.errors.push(format!("{label}: {err}"));
        }
    }

    fn require(&mut self, what: &str, check: Result<(), String>) {
        if let Err(e) = check {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let (_, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .expect("metric is declared");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Sorts metrics into their declaration order.
    fn metric_order(&mut self) {
        let rank = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .position(|(n, _)| *n == name)
        };
        self.metrics.sort_by_key(|(name, _, _)| rank(name));
    }

    /// The final line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed.max(u64::from(!self.correct())),
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The mean of the middle half of `values`: as robust to a few stalled
/// iterations as the median, and steadier from run to run.
fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Every cell of each input in `plan.same_counters` reports the same run
/// counters, across all the given iterations.
fn same_counters(plan: &Plan, runs: &[&Iteration]) -> Result<(), String> {
    for &input in &plan.same_counters {
        let mut cells = runs
            .iter()
            .flat_map(|it| it.cells.iter())
            .filter(|c| c.input == input && c.error.is_none());
        let Some(first) = cells.next() else {
            continue;
        };
        if let Some(other) = cells.find(|c| c.counters != first.counters) {
            return Err(format!(
                "{} counters {:?} != {} counters {:?}",
                other.label, other.counters, first.label, first.counters
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cores = host::cores();
    let shards = cores.clamp(1, 2);
    let plan = Plan::new(args.workload, args.size, args.seed, shards);
    out.notes.push(format!("host {}", host::describe()));
    out.notes.push(format!(
        "workload {} seed {} cells {} streaming shards {shards}",
        args.workload.name(),
        args.seed,
        plan.cells.len()
    ));
    let mut tracer = Tracer::new(args.trace);
    let references = run_iteration(&plan, &plan.references, &mut tracer, "verify", args.trace);
    out.record(&references);
    if args.trace {
        traced(args, &plan, references, tracer, &mut out);
    } else {
        untraced(args, &plan, &references, &mut out);
    }
    out.metric_order();
    out
}

/// Timed iterations until `--seconds` have passed (at least
/// `min_iterations`), each bracketed by calibration runs on as many threads
/// as the workload's kernels use. Every metric is the interquartile mean
/// over iterations; time is scaled to the reference host speed (see
/// [`calib`]).
fn untraced(args: &Args, plan: &Plan, references: &Iteration, out: &mut Outcome) {
    let mut quiet = Tracer::new(false);
    let start = Instant::now();
    let mut its: Vec<Iteration> = Vec::new();
    let mut speed: Vec<f64> = Vec::new();
    let mut stolen: Vec<f64> = Vec::new();
    let threads = plan.threads();
    let mut cal_before = calib::kernel_on_s(threads);
    while its.len() < args.min_iterations || start.elapsed().as_secs_f64() < args.seconds {
        let steal_before = calib::steal_s();
        let it = run_iteration(plan, &plan.cells, &mut quiet, "iteration", false);
        let iteration_steal = calib::steal_s() - steal_before;
        let cal_after = calib::kernel_on_s(threads);
        speed.push(calib::speed_factor(
            (cal_before + cal_after) / 2.0,
            it.wall_s,
            iteration_steal,
        ));
        stolen.push(iteration_steal);
        cal_before = cal_after;
        out.record(&it);
        if let Some(first) = its.first() {
            out.require(
                "determinism",
                check::same_digests(&first.digests(), &it.digests()),
            );
        }
        its.push(it);
    }
    let mut runs: Vec<&Iteration> = its.iter().collect();
    runs.push(references);
    let verdict = same_counters(plan, &runs);
    out.require("kernel agreement", verdict);

    let per = |f: &dyn Fn(&Iteration, f64) -> f64| {
        interquartile_mean(its.iter().zip(&speed).map(|(it, &k)| f(it, k)).collect())
    };
    out.metric("wall_s", per(&|it, k| it.wall_s * k));
    out.metric("setup_s", per(&|it, k| it.setup_s() * k));
    out.metric(
        "events_per_s",
        per(&|it, k| it.events() as f64 / (it.run_s() * k).max(1e-12)),
    );
    out.metric("peak_heap_mib", per(&|it, _| it.peak_bytes as f64 / MIB));
    out.metric(
        "allocs_per_event",
        per(&|it, _| it.run_allocs() as f64 / it.events().max(1) as f64),
    );
    out.notes.push(format!(
        "host time (unscaled): wall_s {:.4} s setup_s {:.4} s events_per_s {:.0} events/s; \
         speed factor median {:.4} (reference kernel {REFERENCE_S} s on {threads} threads); \
         CPU steal over the iterations {:.2} s",
        per(&|it, _| it.wall_s),
        per(&|it, _| it.setup_s()),
        per(&|it, _| it.events() as f64 / it.run_s().max(1e-12)),
        median(speed.clone()),
        stolen.iter().sum::<f64>(),
        REFERENCE_S = calib::REFERENCE_S,
    ));
    let walls: Vec<String> = its.iter().map(|it| format!("{:.3}", it.wall_s)).collect();
    out.notes.push(format!(
        "iterations {} walls_s [{}] events/iteration {}",
        its.len(),
        walls.join(" "),
        its[0].events()
    ));
    for (i, c) in its[0].cells.iter().enumerate() {
        let runs: Vec<f64> = its.iter().map(|it| it.cells[i].run_s).collect();
        out.notes.push(format!(
            "cell {} events {} run_s median {:.4}",
            c.label,
            c.counters.events,
            median(runs)
        ));
    }
    out.notes.push(format!(
        "digest {} {}",
        args.workload.name(),
        hex(check::combine(&its[0].digests()))
    ));
    out.notes
        .push(format!("failed_frac {} ratio", out.failed_frac()));
}

/// Per-layer sums over the traced cells.
#[derive(Debug, Default)]
struct LayerSums {
    lanes: BTreeMap<&'static str, f64>,
    serial_run_s: f64,
    kernel_events: u64,
    counter_events: u64,
    coord_s: f64,
    worker_s: f64,
}

fn lane_metric(lane: &str) -> &'static str {
    match lane {
        "submit" => "kernel.submit_s",
        "complete" => "kernel.complete_s",
        "wait_check" => "kernel.wait_check_s",
        "sample" => "kernel.sample_s",
        // The profiler has no preemption lane of its own: a suspension
        // runs inside the submit that preempts, a resume inside the
        // completion that frees the cores. These lanes suspend, evict or
        // resume jobs outside those two events.
        "machine_down" | "machine_up" | "retry_dispatch" | "drain_start" | "drain_end" => {
            "kernel.suspend_resume_s"
        }
        _ => "kernel.other_s",
    }
}

impl LayerSums {
    fn add(&mut self, cell: &CellRun, notes: &mut Vec<String>) {
        let Some(profile) = &cell.profile else {
            return;
        };
        if cell.kernel.is_some_and(Kernel::is_serial) {
            let cell_lanes = lanes(profile);
            let attributed: u64 = cell_lanes.iter().map(|(_, n)| n).sum();
            let mut line = format!("lanes {} run {:.4} s:", cell.label, cell.run_s);
            for (lane, nanos) in &cell_lanes {
                *self.lanes.entry(lane_metric(lane)).or_default() += *nanos as f64 * 1e-9;
                let _ = write!(line, " {lane} {:.4}", *nanos as f64 * 1e-9);
            }
            if let Some((lane, _)) = cell_lanes.iter().max_by_key(|(_, n)| *n) {
                let _ = write!(
                    line,
                    " unattributed {:.4} largest {lane}",
                    cell.run_s - attributed as f64 * 1e-9
                );
            }
            notes.push(line);
            self.serial_run_s += cell.run_s;
            self.kernel_events += profile.total_events();
            self.counter_events += cell.counters.events;
        } else {
            self.coord_s += profile.coordinator_nanos() as f64 * 1e-9;
            self.worker_s += profile.worker_nanos() as f64 * 1e-9;
        }
    }
}

/// Layer replays over each input (and the canonical 20- and 200-pool
/// sites the workload lacks), recorded under the `layers` root span.
#[derive(Debug, Default)]
struct Replays {
    queue: Replay,
    index: Replay,
    capture_20: Replay,
    capture_200: Replay,
    policy: Replay,
}

fn replay_layers(args: &Args, plan: &Plan, tracer: &mut Tracer) -> Replays {
    let mut r = Replays::default();
    let root = tracer.open("layers", None);
    let mut sites: Vec<(&Input, Vec<&CellSpec>)> = plan
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| (input, plan.cells.iter().filter(|c| c.input == i).collect()))
        .collect();
    let canonical_20 = paper_input(args.size.paper_scale, false, args.seed);
    let canonical_200 = pinned_input(200, args.size, args.seed);
    for canonical in [&canonical_20, &canonical_200] {
        if !plan.inputs.iter().any(|i| i.pools() == canonical.pools()) {
            sites.push((canonical, Vec::new()));
        }
    }
    for (input, cells) in sites {
        let g = tracer.open("layers.generate", None);
        let trace = input.generate();
        tracer.close(g);
        if !cells.is_empty() {
            let g = tracer.open("queue.replay", None);
            r.queue.add(layers::queue(&trace));
            tracer.close(g);
            let g = tracer.open("index.replay", None);
            r.index.add(layers::index(&input.site, &trace));
            tracer.close(g);
        }
        let g = tracer.open("layers.load_pools", None);
        let pools = layers::loaded_pools(&input.site, &trace);
        tracer.close(g);
        let g = tracer.open("snapshot.capture", None);
        let capture = layers::capture(&pools, CAPTURE_POOL_VISITS / pools.len() as u64);
        tracer.close(g);
        if pools.len() == 200 {
            r.capture_200.add(capture);
        } else {
            r.capture_20.add(capture);
        }
        for c in cells {
            let g = tracer.open("policy.select", None);
            r.policy.add(layers::policy(
                c.strategy,
                &pools,
                &trace,
                POLICY_CALLS,
                args.seed,
            ));
            tracer.close(g);
        }
    }
    tracer.close(root);
    r
}

/// The 1-shard vs 2-shard streaming comparison on the workload's first
/// input, alternating rounds; returns the wall ratio (0 when the workload
/// has no streaming cell).
fn speedup_x2(plan: &Plan, references: &Iteration, out: &mut Outcome) -> f64 {
    let Some(first) = plan
        .cells
        .iter()
        .find(|c| matches!(c.kernel, Kernel::Streaming(_)))
    else {
        return 0.0;
    };
    let mut quiet = Tracer::new(false);
    let pair: Vec<CellSpec> = [1, 2]
        .map(|n| CellSpec {
            kernel: Kernel::Streaming(n),
            label: format!("{} (speedup x{n})", first.label),
            ..first.clone()
        })
        .to_vec();
    let (mut x1, mut x2) = (Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    for _ in 0..SPEEDUP_ROUNDS {
        let it = run_iteration(plan, &pair, &mut quiet, "speedup", false);
        out.record(&it);
        x1.push(it.cells[0].run_s);
        x2.push(it.cells[1].run_s);
        rounds.push(it);
    }
    let mut runs: Vec<&Iteration> = rounds.iter().collect();
    runs.push(references);
    let verdict = same_counters(plan, &runs);
    out.require("speedup kernel agreement", verdict);
    median(x1) / median(x2).max(1e-12)
}

fn traced(args: &Args, plan: &Plan, references: Iteration, mut tracer: Tracer, out: &mut Outcome) {
    // Untraced iterations bracket the traced one (after a warm-up), so
    // the overhead ratio compares neighbours rather than a drifting host.
    let mut quiet = Tracer::new(false);
    let mut plain = || run_iteration(plan, &plan.cells, &mut quiet, "iteration", false);
    let warm_up = plain();
    let before = plain();
    let t = run_iteration(plan, &plan.cells, &mut tracer, "traced", true);
    let after = plain();
    let baseline = [before, after];
    for it in [&warm_up, &baseline[0], &t, &baseline[1]] {
        out.record(it);
    }
    out.traced_wall_s = t.wall_s;
    out.require(
        "traced digests",
        check::same_digests(&baseline[0].digests(), &t.digests()),
    );
    let runs = [&warm_up, &baseline[0], &baseline[1], &t, &references];
    let verdict = same_counters(plan, &runs);
    out.require("kernel agreement", verdict);

    let mut sums = LayerSums::default();
    for cell in references.cells.iter().chain(&t.cells) {
        sums.add(cell, &mut out.notes);
    }
    if sums.kernel_events != sums.counter_events {
        out.errors.push(format!(
            "profiler events {} != run counters {}",
            sums.kernel_events, sums.counter_events
        ));
    }
    let replays = replay_layers(args, plan, &mut tracer);
    let speedup = speedup_x2(plan, &references, out);

    let sum = |f: &dyn Fn(&CellRun) -> f64| t.cells.iter().map(f).sum::<f64>();
    let observer =
        |i: usize| sum(&|c: &CellRun| c.observers.as_ref().map_or(0.0, |o| o[i].seconds()));
    out.metric(
        "workload.generate_s",
        t.generate_s + sum(&|c: &CellRun| c.to_specs_s),
    );
    out.metric("workload.jobs", t.jobs as f64);
    out.metric("simulator.new_s", sum(&|c: &CellRun| c.new_s));
    out.metric("queue.replay_ns_per_op", replays.queue.ns_per_op());
    out.metric("queue.ops", replays.queue.ops as f64);
    out.metric("index.first_fit_ns", replays.index.ns_per_op());
    out.metric(
        "snapshot.capture_us_20",
        replays.capture_20.ns_per_op() / 1e3,
    );
    out.metric(
        "snapshot.capture_us_200",
        replays.capture_200.ns_per_op() / 1e3,
    );
    out.metric("policy.select_ns", replays.policy.ns_per_op());
    out.metric(
        "policy.restarts",
        sum(&|c: &CellRun| {
            (c.counters.restarts_from_suspend + c.counters.restarts_from_wait) as f64
        }),
    );
    out.metric(
        "policy.restart_waste_frac",
        sum(&|c: &CellRun| c.waste_min as f64) / sum(&|c: &CellRun| c.busy_min as f64).max(1.0),
    );
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("kernel.")) {
        if name.ends_with("_s") && *name != "kernel.unattributed_s" {
            out.metric(name, sums.lanes.get(name).copied().unwrap_or(0.0));
        }
    }
    let attributed: f64 = sums.lanes.values().sum();
    out.metric("kernel.unattributed_s", sums.serial_run_s - attributed);
    out.metric("kernel.events", sums.kernel_events as f64);
    out.metric("streaming.coord_s", sums.coord_s);
    out.metric("streaming.worker_busy_s", sums.worker_s);
    out.metric(
        "streaming.parallel_fraction",
        sums.worker_s / (sums.worker_s + sums.coord_s).max(1e-12),
    );
    out.metric("streaming.speedup_x2", speedup);
    out.metric("observer.checker_s", observer(0));
    out.metric("observer.telemetry_s", observer(1));
    out.metric("observer.spans_s", observer(2));
    out.metric(
        "observer.calls",
        sum(&|c: &CellRun| {
            c.observers
                .as_ref()
                .map_or(0.0, |o| o.iter().map(|s| s.calls() as f64).sum())
        }),
    );
    out.metric("metrics.summarize_s", sum(&|c: &CellRun| c.summarize_s));
    let base = |f: &dyn Fn(&Iteration) -> f64| median(baseline.iter().map(f).collect());
    out.metric("setup.allocs", base(&|it| it.setup_allocs() as f64));
    out.metric("run.allocs", base(&|it| it.run_allocs() as f64));
    out.metric(
        "trace.overhead_ratio",
        t.wall_s / base(&|it| it.wall_s).max(1e-12),
    );
    out.metric("failed_frac", out.failed_frac());
    let cores = host::cores();
    out.metric("host.cores", cores as f64);

    let mode = if cores >= 2 {
        "parallel"
    } else {
        "interleaved"
    };
    out.notes
        .push(format!("streaming.speedup_x2 mode {mode} ({cores} cores)"));
    out.notes.push(format!(
        "digest {} {}",
        args.workload.name(),
        hex(check::combine(&t.digests()))
    ));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},\"speedup_x2_mode\":\"{mode}\",\"traced_wall_s\":{}}}",
        args.workload.name(),
        args.seed,
        host::describe(),
        t.wall_s
    );
    out.spans = tracer.spans().to_vec();
    if let Some(dir) = &args.out_dir {
        let path = format!(
            "{dir}/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::render_jsonl(&header, &out.spans)));
        match written {
            Ok(()) => out.notes.push(format!("spans written to {path}")),
            Err(e) => out.notes.push(format!("spans not written: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::interquartile_mean;

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(vec![]), 0.0);
        assert_eq!(interquartile_mean(vec![2.0]), 2.0);
        assert_eq!(interquartile_mean(vec![9.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(
            interquartile_mean(vec![100.0, 1.0, 2.0, 3.0, 4.0, 0.0]),
            2.5
        );
    }
}
