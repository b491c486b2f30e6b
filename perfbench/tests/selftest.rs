//! Self-test of the harness at tiny scale: every metric `BENCHMARK.json`
//! names is emitted with its unit on every workload, the count metrics of
//! the traced run repeat exactly, and a wrong answer is counted as a
//! failure.

use std::path::PathBuf;
use std::time::Duration;
use tpdb_perfbench::workload::Workload;
use tpdb_perfbench::{run, Config, Report};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Count metrics of the traced run that must repeat exactly for a seed.
const COUNTS: [&str; 12] = [
    "storage.snapshot_bytes",
    "query.cache_hits",
    "query.cache_misses",
    "core.windows_wo",
    "core.windows_wu",
    "core.windows_wn",
    "core.output_tuples",
    "lineage.arena_nodes",
    "lineage.shannon_expansions",
    "lineage.neg_width_mean",
    "lineage.neg_width_max",
    "server.wire_bytes",
];

fn tiny(workload: Workload, trace: bool, dir: &str) -> Config {
    let mut config = Config::new(workload, 7, 1, trace);
    config.tuples = 300;
    config.measure = Duration::from_millis(200);
    config.setup_reps = 2;
    config.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    config
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item[..item.find('"').expect("name closes")].to_owned();
            let unit_at = item.find("\"unit\": \"").expect("unit present") + 9;
            let unit =
                item[unit_at..unit_at + item[unit_at..].find('"').expect("unit closes")].to_owned();
            (name, unit)
        })
        .collect()
}

fn assert_emits(report: &Report, section: &str) {
    let want = declared(section);
    assert!(!want.is_empty());
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} is finite", m.name);
    }
    let json = report.json();
    for (name, unit) in &want {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in JSON"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} in JSON"
        );
    }
}

#[test]
fn every_workload_in_the_file_is_known() {
    let start = BENCHMARK_JSON
        .find("\"workloads\"")
        .expect("workloads listed");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let names: Vec<&str> = body
        .split("\"name\": \"")
        .skip(1)
        .map(|item| &item[..item.find('"').expect("name closes")])
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, known);
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_their_checks() {
    for workload in Workload::ALL {
        let report = run(&tiny(workload, false, "e2e"));
        assert_emits(&report, "end_to_end");
        assert!(
            report.correct(),
            "{}: {} of {} failed",
            workload.name(),
            report.failed,
            report.attempted
        );
        for name in [
            "setup_s",
            "qps",
            "rows_per_s",
            "round_ms_p50",
            "write_ms_p50",
            "peak_rss_mb",
        ] {
            assert!(
                report.get(name).expect("emitted") > 0.0,
                "{} {name} > 0",
                workload.name()
            );
        }
        assert!((report.get("ok_rate").expect("emitted") - 1.0).abs() < 1e-12);
        assert!(report.notes[0].starts_with("host nproc="));
        assert!(report.notes[0].contains("seed=7"));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_repeat_their_counts() {
    for workload in Workload::ALL {
        let first = run(&tiny(workload, true, "trace-a"));
        assert_emits(&first, "per_layer");
        assert!(
            first.correct(),
            "{}: {} of {} failed",
            workload.name(),
            first.failed,
            first.attempted
        );
        let again = run(&tiny(workload, true, "trace-b"));
        let mut other_degree = tiny(workload, true, "trace-c");
        other_degree.parallelism = 3 - workload.parallelism();
        let other_degree = run(&other_degree);
        assert!(other_degree.correct());
        for name in COUNTS {
            let v = first.get(name).expect("emitted");
            assert_eq!(
                v.to_bits(),
                again.get(name).expect("emitted").to_bits(),
                "{} {name} across runs",
                workload.name()
            );
            assert_eq!(
                v.to_bits(),
                other_degree.get(name).expect("emitted").to_bits(),
                "{} {name} across parallelism 1 and 2",
                workload.name()
            );
        }
        assert!(first.get("core.output_tuples").expect("emitted") > 0.0);
        assert!(first.get("point_ms_p50").expect("emitted") > 0.0);
        assert!(first.get("query.cache_hits").expect("emitted") > 0.0);
    }
}

#[test]
fn an_injected_wrong_result_is_a_failed_operation() {
    for workload in Workload::ALL {
        let mut config = tiny(workload, false, "inject");
        config.inject_wrong = true;
        let report = run(&config);
        assert!(!report.correct());
        assert!(
            report.failed > 0,
            "{} counts the wrong answers",
            workload.name()
        );
        let ok_rate = report.get("ok_rate").expect("emitted");
        let expected = (report.attempted - report.failed) as f64 / report.attempted as f64;
        assert!(ok_rate < 1.0);
        assert!((ok_rate - expected).abs() < 1e-12);
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}
