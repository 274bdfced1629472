//! Shared experiment-running machinery for the harness binaries.
//!
//! Every table binary does the same thing: build a scenario, run one
//! experiment per strategy (in parallel — runs are independent), and print
//! measured rows interleaved with the paper's published rows. The scale
//! factor comes from `NETBATCH_SCALE` (default 0.1 = a 10% replica of the
//! paper's site and arrival rates, which preserves utilization and policy
//! behaviour; use 1.0 for the full 20x-larger runs).

use netbatch_core::experiment::ExperimentResult;
use netbatch_core::observer::EventCounts;
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::simulator::{SimConfig, Simulator};
use netbatch_metrics::table::{fmt_minutes, fmt_percent, Table};
use netbatch_workload::scenarios::{ScenarioParams, SiteSpec};
use netbatch_workload::trace::Trace;

use crate::paper::PaperRow;

/// Default scale when `NETBATCH_SCALE` is unset.
pub const DEFAULT_SCALE: f64 = 0.1;

/// Reads the experiment scale from the environment.
///
/// # Panics
///
/// Panics if `NETBATCH_SCALE` is set but not a positive number.
pub fn scale_from_env() -> f64 {
    match std::env::var("NETBATCH_SCALE") {
        Ok(v) => {
            let scale: f64 = v
                .parse()
                .unwrap_or_else(|_| panic!("NETBATCH_SCALE must be a number, got `{v}`"));
            assert!(scale > 0.0, "NETBATCH_SCALE must be positive");
            scale
        }
        Err(_) => DEFAULT_SCALE,
    }
}

/// Which load regime a table runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The paper's normal-load week.
    Normal,
    /// The paper's high-load transform: every machine's cores halved.
    High,
}

/// Builds the (site, trace) pair for a load regime at the given scale.
pub fn build_scenario(load: Load, scale: f64) -> (SiteSpec, Trace) {
    let params = ScenarioParams::normal_week(scale);
    let site = match load {
        Load::Normal => params.build_site(),
        Load::High => params.build_site().halved(),
    };
    (site, params.generate_trace())
}

/// Observer options for a harness run.
///
/// The default (all off) keeps the hot path observer-free; the harness
/// binaries flip these from `--check-invariants` / `--stats` flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerOpts {
    /// Run every cell under the online [`netbatch_core::InvariantChecker`]
    /// (panics, with event history, on the first violated invariant).
    pub check_invariants: bool,
    /// Count events per kind and profile the kernel in every cell, and
    /// print the [`EventCounts::report`] after the strategies of a table
    /// finish.
    pub stats: bool,
    /// Attach a [`netbatch_core::Telemetry`] observer per cell (spans,
    /// per-pool series, exposition). Used by the observer-overhead bench.
    pub telemetry: bool,
    /// Attach a [`netbatch_core::SpanRecorder`] per cell (causal span
    /// trees + decision audit). Used by the observer-overhead bench.
    pub spans: bool,
}

/// Runs one experiment cell.
pub fn run_cell(
    site: &SiteSpec,
    trace: &Trace,
    initial: InitialKind,
    strategy: StrategyKind,
) -> ExperimentResult {
    run_cell_opts(site, trace, initial, strategy, RunnerOpts::default()).0
}

/// Runs one experiment cell under the given observer options.
///
/// Returns the experiment result plus the [`EventCounts::report`] when
/// `opts.stats` is set (`None` otherwise).
pub fn run_cell_opts(
    site: &SiteSpec,
    trace: &Trace,
    initial: InitialKind,
    strategy: StrategyKind,
    opts: RunnerOpts,
) -> (ExperimentResult, Option<String>) {
    let mut config = SimConfig::new(initial, strategy);
    config.check_invariants = opts.check_invariants;
    config.telemetry = opts.telemetry;
    config.spans = opts.spans;
    config.profile = opts.stats;
    let mut sim = Simulator::new(site, trace.to_specs(), config);
    if opts.stats {
        sim.attach_observer(Box::new(EventCounts::new()));
    }
    let output = sim.run_to_completion();
    let report = output
        .observer::<EventCounts>()
        .zip(output.profile.as_ref())
        .map(|(counts, profile)| format!("-- {} --\n{}", strategy.name(), counts.report(profile)));
    let result = ExperimentResult::from_output(initial, strategy, output);
    (result, report)
}

/// Runs a list of strategies over the same scenario, in parallel (one
/// thread per strategy — the runs share nothing).
pub fn run_strategies(
    site: &SiteSpec,
    trace: &Trace,
    initial: InitialKind,
    strategies: &[StrategyKind],
) -> Vec<ExperimentResult> {
    run_strategies_opts(site, trace, initial, strategies, RunnerOpts::default())
}

/// Runs a list of strategies in parallel under the given observer
/// options. Stats reports (if requested) are printed after all cells
/// finish, in strategy order, so parallel runs never interleave output.
pub fn run_strategies_opts(
    site: &SiteSpec,
    trace: &Trace,
    initial: InitialKind,
    strategies: &[StrategyKind],
    opts: RunnerOpts,
) -> Vec<ExperimentResult> {
    let cells: Vec<(ExperimentResult, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = strategies
            .iter()
            .map(|&strategy| {
                scope.spawn(move || run_cell_opts(site, trace, initial, strategy, opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    });
    cells
        .into_iter()
        .map(|(result, report)| {
            if let Some(report) = report {
                print!("{report}");
            }
            result
        })
        .collect()
}

/// Prints a measured-vs-paper comparison table.
///
/// For each strategy the measured row is followed by the paper's published
/// row (marked `(paper)`), so factors and orderings are visible at a
/// glance.
pub fn print_comparison(title: &str, results: &[ExperimentResult], paper: &[PaperRow]) {
    println!("\n== {title} ==");
    let mut table = Table::new([
        "strategy",
        "Suspend rate",
        "AvgCT (susp)",
        "AvgCT (all)",
        "AvgST",
        "AvgWCT",
    ]);
    for r in results {
        table.row(r.paper_row());
        if let Some(p) = paper.iter().find(|p| p.strategy == r.strategy) {
            table.row([
                format!("  {} (paper)", p.strategy.name()),
                fmt_percent(p.suspend_rate),
                fmt_minutes(p.avg_ct_suspended),
                fmt_minutes(p.avg_ct_all),
                fmt_minutes(p.avg_st),
                fmt_minutes(p.avg_wct),
            ]);
        }
    }
    print!("{table}");
}

/// Prints the reduction-vs-baseline summary the paper quotes in prose
/// (AvgCT over suspended jobs and AvgWCT, relative to the first result,
/// which must be the NoRes baseline).
pub fn print_reductions(results: &[ExperimentResult]) {
    let Some(baseline) = results.first() else {
        return;
    };
    assert_eq!(
        baseline.strategy,
        StrategyKind::NoRes,
        "reductions are computed against the NoRes baseline"
    );
    for r in &results[1..] {
        let ct = reduction(baseline.avg_ct_suspended, r.avg_ct_suspended);
        let wct = reduction(baseline.avg_wct(), r.avg_wct());
        let ct_all = reduction(baseline.avg_ct_all, r.avg_ct_all);
        println!(
            "{:<16} AvgCT(susp) {:+.0}% | AvgCT(all) {:+.0}% | AvgWCT {:+.0}% vs NoRes",
            r.strategy.name(),
            -ct * 100.0,
            -ct_all * 100.0,
            -wct * 100.0,
        );
    }
}

/// Relative reduction from `from` to `to` (positive = improvement).
pub fn reduction(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (from - to) / from
    }
}

/// Markdown rendering of a comparison, appended to stdout for
/// EXPERIMENTS.md.
pub fn markdown_comparison(results: &[ExperimentResult], paper: &[PaperRow]) -> String {
    let mut table = Table::new([
        "strategy",
        "Suspend rate",
        "AvgCT (susp)",
        "AvgCT (all)",
        "AvgST",
        "AvgWCT",
    ]);
    for r in results {
        table.row(r.paper_row());
        if let Some(p) = paper.iter().find(|p| p.strategy == r.strategy) {
            table.row([
                format!("*{} (paper)*", p.strategy.name()),
                fmt_percent(p.suspend_rate),
                fmt_minutes(p.avg_ct_suspended),
                fmt_minutes(p.avg_ct_all),
                fmt_minutes(p.avg_st),
                fmt_minutes(p.avg_wct),
            ]);
        }
    }
    table.render_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_at_small_scale() {
        let (site, trace) = build_scenario(Load::Normal, 0.01);
        assert_eq!(site.pools.len(), 20);
        assert!(trace.len() > 100);
        let (high_site, _) = build_scenario(Load::High, 0.01);
        assert!(high_site.total_cores() < site.total_cores());
    }

    #[test]
    fn parallel_runs_match_serial_runs() {
        let (site, trace) = build_scenario(Load::Normal, 0.01);
        let strategies = [StrategyKind::NoRes, StrategyKind::ResSusUtil];
        let parallel = run_strategies(&site, &trace, InitialKind::RoundRobin, &strategies);
        for (r, &strategy) in parallel.iter().zip(&strategies) {
            let serial = run_cell(&site, &trace, InitialKind::RoundRobin, strategy);
            assert_eq!(r.suspend_rate, serial.suspend_rate);
            assert_eq!(r.avg_ct_all, serial.avg_ct_all);
        }
    }

    #[test]
    fn opts_cell_checks_invariants_and_reports_stats() {
        let (site, trace) = build_scenario(Load::Normal, 0.01);
        let opts = RunnerOpts {
            check_invariants: true,
            stats: true,
            telemetry: false,
            spans: false,
        };
        let (result, report) = run_cell_opts(
            &site,
            &trace,
            InitialKind::RoundRobin,
            StrategyKind::ResSusUtil,
            opts,
        );
        // Same numbers as the observer-free path: observers are read-only.
        let plain = run_cell(
            &site,
            &trace,
            InitialKind::RoundRobin,
            StrategyKind::ResSusUtil,
        );
        assert_eq!(result.avg_ct_all, plain.avg_ct_all);
        assert_eq!(result.suspend_rate, plain.suspend_rate);
        let report = report.expect("stats report requested");
        assert!(report.contains("ResSusUtil"));
        assert!(report.contains("submit"));
    }

    #[test]
    fn reduction_math() {
        assert!((reduction(100.0, 50.0) - 0.5).abs() < 1e-12);
        assert!((reduction(100.0, 125.0) + 0.25).abs() < 1e-12);
        assert_eq!(reduction(0.0, 10.0), 0.0);
    }

    #[test]
    fn markdown_contains_paper_rows() {
        let (site, trace) = build_scenario(Load::Normal, 0.01);
        let results = run_strategies(
            &site,
            &trace,
            InitialKind::RoundRobin,
            &[StrategyKind::NoRes],
        );
        let md = markdown_comparison(&results, &crate::paper::TABLE_1);
        assert!(md.contains("NoRes (paper)"));
        assert!(md.contains("2498.7"));
    }
}
