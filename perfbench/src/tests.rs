//! Smoke-size tests of the benchmark itself.

use crate::bench::{self, Args, Outcome, END_TO_END, PER_LAYER};
use crate::spans::{self_times, Span};
use crate::workloads::{Size, Workload};

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let args = Args {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::SMOKE,
        min_iterations: 1,
        out_dir: None,
    };
    let out = bench::run(&args);
    assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
    out
}

/// `"name": {"value": <number>, "unit": "<unit>"}` for every metric.
fn assert_printed(json: &str, metrics: &[(&str, &str)]) {
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {json}"));
        let rest = &json[at + key.len()..];
        let (value, rest) = rest.split_once(',').expect("value is followed by a unit");
        assert!(value.parse::<f64>().is_ok(), "{name} value `{value}`");
        assert!(
            rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{name} unit in `{rest}`"
        );
    }
}

#[test]
fn every_metric_is_printed_with_its_unit_for_every_workload() {
    for workload in Workload::ALL {
        let out = smoke(workload, false);
        let json = out.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert_printed(&json, &END_TO_END);
        assert_eq!(out.metrics.len(), END_TO_END.len());

        let out = smoke(workload, true);
        let json = out.json();
        assert_printed(&json, &PER_LAYER);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let named = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
    for workload in Workload::ALL {
        assert!(named(workload.name()), "{}", workload.name());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(named(name), "{name} missing from BENCHMARK.json");
        let entry = &text[text.find(&format!("\"name\": \"{name}\"")).unwrap()..];
        let entry = &entry[..entry.find('}').unwrap()];
        assert!(
            entry.contains(&format!("\"unit\": \"{unit}\"")),
            "{name}: unit {unit} in `{entry}`"
        );
    }
}

/// Spans nest: no span's children cover more than the span itself, so
/// every self time is genuinely non-negative, and the self times of the
/// `traced` tree add up to the traced iteration's wall.
#[test]
fn span_self_times_are_non_negative_and_add_up_to_the_traced_wall() {
    for workload in [Workload::PaperWeek, Workload::ObservedWeek] {
        let out = smoke(workload, true);
        let spans: &[Span] = &out.spans;
        assert!(!spans.is_empty());
        let mut children_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                assert!(p < spans.len());
                children_ns[p] += s.duration_ns();
            }
        }
        for (s, kids) in spans.iter().zip(&children_ns) {
            assert!(
                *kids <= s.duration_ns(),
                "{}: children {kids} ns > span {} ns",
                s.name,
                s.duration_ns()
            );
        }
        let root = spans.iter().position(|s| s.name == "traced").unwrap();
        let in_tree = |mut i: usize| loop {
            if i == root {
                return true;
            }
            match spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let selfs = self_times(spans);
        let total: u64 = (0..spans.len())
            .filter(|&i| in_tree(i))
            .map(|i| selfs[i])
            .sum();
        assert_eq!(total, spans[root].duration_ns());
        let wall = out.traced_wall_s;
        let traced = total as f64 * 1e-9;
        assert!(
            (traced - wall).abs() <= 0.01 * wall + 1e-4,
            "span self times {traced} s vs traced wall {wall} s"
        );
        assert!(spans.iter().any(|s| s.name == "kernel.submit"));
    }
}

#[test]
fn cli_rejects_bad_flags() {
    let parse = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()));
    assert!(parse(&[
        "--workload",
        "paper_week",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1"
    ])
    .is_ok_and(|a| a.trace && a.seed == 3));
    assert!(parse(&["--seed", "3"]).is_err());
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "paper_week", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "paper_week", "--seconds"]).is_err());
    assert!(parse(&["--workload", "paper_week", "--bogus", "1"]).is_err());
}
