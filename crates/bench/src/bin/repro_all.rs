//! Runs the complete reproduction: every table and figure of the paper's
//! evaluation, printing measured-vs-paper comparisons and a final
//! shape-check summary (the qualitative claims that must hold).
//!
//! `NETBATCH_SCALE` scales the site and arrival rates (default 0.1; set
//! 1.0 for the paper-sized 248k-job week). The year-long figure runs use
//! half the table scale.
//!
//! Flags: `--scale N` overrides `NETBATCH_SCALE`; `--check-invariants`
//! runs every cell under the online invariant checker; `--stats` prints
//! per-kind event counts and the kernel profiler's handler times per cell; `--markdown` appends the
//! EXPERIMENTS.md tables; `--smoke` reports shape checks without gating
//! the exit code on them (they are calibrated for scale >= 0.1, so
//! small-scale CI runs gate only on invariants, which panic on violation).

use netbatch_bench::paper::{figure2, TABLE_1, TABLE_2, TABLE_3, TABLE_4, TABLE_5};
use netbatch_bench::runner::{
    build_scenario, markdown_comparison, print_comparison, print_reductions, reduction,
    run_strategies_opts, scale_from_env, Load, RunnerOpts,
};
use netbatch_core::experiment::Experiment;
use netbatch_core::policy::{InitialKind, StrategyKind};
use netbatch_core::simulator::SimConfig;
use netbatch_workload::scenarios::ScenarioParams;

struct ShapeCheck {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn check(name: &'static str, pass: bool, detail: String) -> ShapeCheck {
    ShapeCheck { name, pass, detail }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale = match argv.iter().position(|a| a == "--scale") {
        Some(i) => {
            let v = argv.get(i + 1).expect("--scale needs a value");
            let scale: f64 = v
                .parse()
                .unwrap_or_else(|_| panic!("--scale must be a number, got `{v}`"));
            assert!(scale > 0.0, "--scale must be positive");
            scale
        }
        None => scale_from_env(),
    };
    let opts = RunnerOpts {
        check_invariants: argv.iter().any(|a| a == "--check-invariants"),
        stats: argv.iter().any(|a| a == "--stats"),
        telemetry: false,
        spans: false,
    };
    let smoke = argv.iter().any(|a| a == "--smoke");
    let t0 = std::time::Instant::now();
    println!(
        "NetBatch dynamic-rescheduling reproduction | scale {scale}{}",
        if opts.check_invariants {
            " | invariant-checked"
        } else {
            ""
        }
    );
    let mut checks: Vec<ShapeCheck> = Vec::new();
    let mut markdown = String::new();

    // ---- Tables 1-5 ----
    let (normal_site, trace) = build_scenario(Load::Normal, scale);
    let high_site = normal_site.halved();

    let t1 = run_strategies_opts(
        &normal_site,
        &trace,
        InitialKind::RoundRobin,
        &StrategyKind::PAPER_SUSPEND_ONLY,
        opts,
    );
    print_comparison("Table 1: normal load, round-robin initial", &t1, &TABLE_1);
    print_reductions(&t1);
    markdown.push_str("\n### Table 1 (normal load, round-robin initial)\n\n");
    markdown.push_str(&markdown_comparison(&t1, &TABLE_1));

    let t2 = run_strategies_opts(
        &high_site,
        &trace,
        InitialKind::RoundRobin,
        &StrategyKind::PAPER_SUSPEND_ONLY,
        opts,
    );
    print_comparison("Table 2: high load, round-robin initial", &t2, &TABLE_2);
    print_reductions(&t2);
    markdown.push_str("\n### Table 2 (high load, round-robin initial)\n\n");
    markdown.push_str(&markdown_comparison(&t2, &TABLE_2));

    let t3 = run_strategies_opts(
        &high_site,
        &trace,
        InitialKind::UtilizationBased,
        &StrategyKind::PAPER_SUSPEND_ONLY,
        opts,
    );
    print_comparison(
        "Table 3: high load, utilization-based initial",
        &t3,
        &TABLE_3,
    );
    print_reductions(&t3);
    markdown.push_str("\n### Table 3 (high load, utilization-based initial)\n\n");
    markdown.push_str(&markdown_comparison(&t3, &TABLE_3));

    let t4 = run_strategies_opts(
        &high_site,
        &trace,
        InitialKind::RoundRobin,
        &StrategyKind::PAPER_WITH_WAIT,
        opts,
    );
    print_comparison(
        "Table 4: wait rescheduling, round-robin initial",
        &t4,
        &TABLE_4,
    );
    print_reductions(&t4);
    markdown.push_str("\n### Table 4 (wait rescheduling, round-robin initial)\n\n");
    markdown.push_str(&markdown_comparison(&t4, &TABLE_4));

    let t5 = run_strategies_opts(
        &high_site,
        &trace,
        InitialKind::UtilizationBased,
        &StrategyKind::PAPER_WITH_WAIT,
        opts,
    );
    print_comparison(
        "Table 5: wait rescheduling, utilization-based initial",
        &t5,
        &TABLE_5,
    );
    print_reductions(&t5);
    markdown.push_str("\n### Table 5 (wait rescheduling, utilization-based initial)\n\n");
    markdown.push_str(&markdown_comparison(&t5, &TABLE_5));

    // ---- High-suspension scenario ----
    let hs_params = ScenarioParams::high_suspension_week(scale);
    let hs = run_strategies_opts(
        &hs_params.build_site(),
        &hs_params.generate_trace(),
        InitialKind::RoundRobin,
        &[StrategyKind::NoRes, StrategyKind::ResSusUtil],
        opts,
    );
    print_comparison("High-suspension scenario (§3.2.1)", &hs, &[]);
    print_reductions(&hs);

    // ---- Figure 2 / Figure 4 (year trace) ----
    let year_params = ScenarioParams::year(scale * 0.5);
    let mut year_config =
        SimConfig::new(InitialKind::RoundRobin, StrategyKind::NoRes).with_sampling();
    year_config.check_invariants = opts.check_invariants;
    let year = Experiment::new(
        year_params.build_site(),
        year_params.generate_trace(),
        year_config,
    )
    .run();
    let cdf = year.suspension_cdf();
    let median = cdf.median().unwrap_or(0.0);
    let mean = cdf.mean();
    let tail = 1.0 - cdf.at(figure2::TAIL_THRESHOLD_MIN);
    println!("\n== Figure 2: suspension-time distribution (year trace) ==");
    println!("                    measured     paper");
    println!(
        "median            {median:>9.0} {:>9.0}",
        figure2::MEDIAN_MIN
    );
    println!("mean              {mean:>9.0} {:>9.0}", figure2::MEAN_MIN);
    println!(
        "frac > 1100 min   {:>8.1}% {:>8.1}%",
        tail * 100.0,
        figure2::FRACTION_ABOVE_1100 * 100.0
    );
    // Figure 4 covers the submission year; exclude the post-horizon drain.
    let in_horizon: Vec<f64> = year
        .utilization_series
        .samples()
        .iter()
        .filter(|&&(t, _)| t.as_minutes() < year_params.horizon)
        .map(|&(_, u)| u)
        .collect();
    let mean_util = in_horizon.iter().sum::<f64>() / in_horizon.len().max(1) as f64;
    println!("\n== Figure 4: utilization / suspension over the year ==");
    println!("mean utilization {mean_util:.1}% (paper: ~40%, typically 20-60%)");
    println!(
        "peak suspended jobs {:.0}, mean {:.1}",
        year.suspended_series.max().unwrap_or(0.0),
        year.suspended_series.mean()
    );

    // ---- Shape checks ----
    let nores1 = &t1[0];
    let util1 = &t1[1];
    let rand1 = &t1[2];
    checks.push(check(
        "T1: ResSusUtil cuts AvgCT(susp) vs NoRes (paper: -50%)",
        util1.avg_ct_suspended < nores1.avg_ct_suspended * 0.85,
        format!(
            "{:.0} -> {:.0} ({:+.0}%)",
            nores1.avg_ct_suspended,
            util1.avg_ct_suspended,
            -reduction(nores1.avg_ct_suspended, util1.avg_ct_suspended) * 100.0
        ),
    ));
    checks.push(check(
        "T1: ResSusUtil cuts AvgWCT vs NoRes (paper: -33%)",
        util1.avg_wct() < nores1.avg_wct() * 0.8,
        format!("{:.1} -> {:.1}", nores1.avg_wct(), util1.avg_wct()),
    ));
    checks.push(check(
        "T1: rescheduling raises the suspend rate",
        util1.suspend_rate > nores1.suspend_rate,
        format!(
            "{:.2}% -> {:.2}%",
            nores1.suspend_rate * 100.0,
            util1.suspend_rate * 100.0
        ),
    ));
    checks.push(check(
        "T1: ResSusRand is worse than ResSusUtil (poor pool choice hurts)",
        rand1.avg_wct() > util1.avg_wct(),
        format!("WCT {:.1} vs {:.1}", rand1.avg_wct(), util1.avg_wct()),
    ));
    let nores2 = &t2[0];
    let util2 = &t2[1];
    let rand2 = &t2[2];
    checks.push(check(
        "T2: high load roughly doubles NoRes AvgCT(all) vs normal",
        nores2.avg_ct_all > nores1.avg_ct_all * 1.5,
        format!("{:.0} -> {:.0}", nores1.avg_ct_all, nores2.avg_ct_all),
    ));
    checks.push(check(
        "T2: rescheduling benefit grows under high load (paper: -75%)",
        reduction(nores2.avg_ct_suspended, util2.avg_ct_suspended)
            > reduction(nores1.avg_ct_suspended, util1.avg_ct_suspended),
        format!(
            "normal {:+.0}%, high {:+.0}%",
            -reduction(nores1.avg_ct_suspended, util1.avg_ct_suspended) * 100.0,
            -reduction(nores2.avg_ct_suspended, util2.avg_ct_suspended) * 100.0
        ),
    ));
    checks.push(check(
        "T2: ResSusRand backfires vs NoRes (worst overall: WCT and AvgCT-all)",
        rand2.avg_wct() > nores2.avg_wct() && rand2.avg_ct_all > nores2.avg_ct_all,
        format!(
            "WCT {:.0} vs {:.0}, CT(all) {:.0} vs {:.0}",
            rand2.avg_wct(),
            nores2.avg_wct(),
            rand2.avg_ct_all,
            nores2.avg_ct_all
        ),
    ));
    let nores3 = &t3[0];
    let util3 = &t3[1];
    checks.push(check(
        "T3: ResSusUtil still cuts AvgCT(susp) under util-based initial (paper: -75%)",
        util3.avg_ct_suspended < nores3.avg_ct_suspended * 0.9,
        format!(
            "CT(s) {:.0} -> {:.0} ({:+.0}%)",
            nores3.avg_ct_suspended,
            util3.avg_ct_suspended,
            -reduction(nores3.avg_ct_suspended, util3.avg_ct_suspended) * 100.0
        ),
    ));
    let wait_util4 = &t4[1];
    let wait_rand4 = &t4[2];
    checks.push(check(
        "T4: wait rescheduling beats suspend-only on AvgCT(all)",
        wait_util4.avg_ct_all < util2.avg_ct_all,
        format!("{:.0} vs {:.0}", wait_util4.avg_ct_all, util2.avg_ct_all),
    ));
    checks.push(check(
        "T4: random performs close to utilization-based with wait resched",
        wait_rand4.avg_ct_suspended < 1.35 * wait_util4.avg_ct_suspended,
        format!(
            "{:.0} vs {:.0}",
            wait_rand4.avg_ct_suspended, wait_util4.avg_ct_suspended
        ),
    ));
    checks.push(check(
        "T4: ResSusWaitRand fixes the random backfire seen in T2",
        wait_rand4.avg_ct_suspended < rand2.avg_ct_suspended,
        format!(
            "{:.0} vs {:.0}",
            wait_rand4.avg_ct_suspended, rand2.avg_ct_suspended
        ),
    ));
    checks.push(check(
        "T4: random wait-resched costs far more restarts (paper's caveat)",
        t4[2].counters.restarts_from_wait > 2 * t4[1].counters.restarts_from_wait,
        format!(
            "{} vs {}",
            t4[2].counters.restarts_from_wait, t4[1].counters.restarts_from_wait
        ),
    ));
    let wait_util5 = &t5[1];
    let wait_rand5 = &t5[2];
    checks.push(check(
        "T5: both wait strategies beat NoRes under util-based initial",
        wait_util5.avg_wct() < t5[0].avg_wct() && wait_rand5.avg_wct() < t5[0].avg_wct(),
        format!(
            "WCT {:.1} / {:.1} vs {:.1}",
            wait_util5.avg_wct(),
            wait_rand5.avg_wct(),
            t5[0].avg_wct()
        ),
    ));
    checks.push(check(
        "HS: high-suspension scenario has a much higher suspend rate",
        hs[0].suspend_rate > 2.0 * nores1.suspend_rate,
        format!(
            "{:.1}% vs {:.2}%",
            hs[0].suspend_rate * 100.0,
            nores1.suspend_rate * 100.0
        ),
    ));
    checks.push(check(
        "HS: rescheduling strongly cuts AvgCT(susp) (paper: -44%)",
        reduction(hs[0].avg_ct_suspended, hs[1].avg_ct_suspended) > 0.3,
        format!(
            "{:+.0}%",
            -reduction(hs[0].avg_ct_suspended, hs[1].avg_ct_suspended) * 100.0
        ),
    ));
    checks.push(check(
        "F2: suspension times are heavy-tailed (median well below mean)",
        median < mean && tail > 0.05,
        format!(
            "median {median:.0}, mean {mean:.0}, tail {:.0}%",
            tail * 100.0
        ),
    ));
    checks.push(check(
        "F4: mean utilization in the paper's typical band",
        (20.0..=60.0).contains(&mean_util),
        format!("{mean_util:.1}%"),
    ));

    println!("\n== known deviations from the paper (see EXPERIMENTS.md) ==");
    println!(
        "D1: ResSusRand's backfire appears on AvgWCT/AvgCT(all) but its AvgCT(susp) \n    did not exceed NoRes's ({:.0} vs {:.0}); in the paper it did (6485 vs 5846).",
        rand2.avg_ct_suspended, nores2.avg_ct_suspended
    );
    println!(
        "D2: the utilization-based initial scheduler LOWERS the NoRes suspend rate here \n    ({:.2}% vs {:.2}% under RR); the paper reports a small increase (1.26% -> 1.50%).\n    A perfectly balanced site rarely fills any single pool, so host-level preemption \n    has fewer opportunities in our packing model.",
        nores3.suspend_rate * 100.0,
        nores2.suspend_rate * 100.0
    );
    println!(
        "D3: under util-based initial, ResSusUtil's AvgWCT is {:.0} vs NoRes {:.0} \n    (paper: 408 vs 457, an 11% cut).",
        util3.avg_wct(),
        nores3.avg_wct()
    );

    println!("\n== shape checks (the paper's qualitative claims) ==");
    let mut passed = 0;
    for c in &checks {
        println!(
            "[{}] {} — {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
        if c.pass {
            passed += 1;
        }
    }
    println!(
        "\n{passed}/{} shape checks passed | total wall time {:.1}s",
        checks.len(),
        t0.elapsed().as_secs_f64()
    );

    if argv.iter().any(|a| a == "--markdown") {
        println!("\n---- markdown for EXPERIMENTS.md ----\n{markdown}");
    }
    if passed < checks.len() {
        if smoke {
            println!("(smoke mode: shape checks reported but not gating the exit code)");
        } else {
            std::process::exit(1);
        }
    }
}
