//! The benchmark's own checks: metric names, worker-count invariance of
//! the simulated results, the audit's power to catch a wrong record, and
//! the setup split adding up.

use marvel_core::TelemetryConfig;
use marvel_perfbench::campaign::Campaign;
use marvel_perfbench::check::audit;
use marvel_perfbench::spans::SpanLog;
use marvel_perfbench::workloads::{campaigns, WORKLOADS};
use marvel_perfbench::{run_pass, PassOptions, END_TO_END, PER_LAYER};
use marvel_serve::json::{parse, Json};

fn names(list: &Json, key: &str) -> Vec<String> {
    list.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("every entry has a name").to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
    for n in &all {
        assert!(n.len() <= 64, "{n} is too long");
        assert!(
            n.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{n} must start with a letter or digit"
        );
        assert!(
            n.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{n} has a character outside [A-Za-z0-9_.-]"
        );
        assert_eq!(all.iter().filter(|m| *m == n).count(), 1, "{n} is used twice");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        names(&doc, "end_to_end"),
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(
        names(&doc, "per_layer"),
        PER_LAYER.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(names(&doc, "workloads"), WORKLOADS.iter().map(|n| n.to_string()).collect::<Vec<_>>());
}

/// A pass with two faults per campaign, every run audited.
fn tiny_pass(workload: &str, workers: usize) -> marvel_perfbench::PassResult {
    let opts = PassOptions { workers, faults: Some(2), traced: false, audit_runs: 2 };
    run_pass(workload, 11, &opts, &mut SpanLog::default(), 0).expect("tiny pass runs")
}

#[test]
fn tiny_pass_results_match_at_one_and_two_workers_and_pass_the_full_audit() {
    for w in WORKLOADS {
        let (one, two) = (tiny_pass(w, 1), tiny_pass(w, 2));
        assert_eq!(
            one.fingerprint, two.fingerprint,
            "{w}: simulated results depend on the worker count"
        );
        assert_eq!(one.runs, 2 * campaigns(w, None).unwrap().len() as u64);
        for p in [&one, &two] {
            assert_eq!(p.audit.failed(), 0, "{w}: {:?}", p.audit);
            assert_eq!(p.audit.checked as u64, p.runs, "{w}: every run is audited");
        }
    }
}

#[test]
fn setup_parts_add_up_to_setup_time() {
    for w in WORKLOADS {
        let s = tiny_pass(w, 2).setup;
        let parts = s.compile_s + s.golden_s + s.ladder_s + s.masks_s;
        assert!(parts <= s.setup_s, "{w}: parts {parts} exceed setup {}", s.setup_s);
        assert!(
            s.setup_s - parts <= 0.01 * s.setup_s + 1e-3,
            "{w}: parts {parts} of setup {}",
            s.setup_s
        );
    }
}

#[test]
fn audit_flags_a_planted_mismatch_and_a_missing_record() {
    let def = &campaigns("cpu_transient", Some(3)).unwrap()[0];
    let mut log = SpanLog::default();
    let c = Campaign::prepare(&def.spec_text(5, 2), TelemetryConfig::default(), &mut log, 0).unwrap();
    let (mut records, _) = c.drive(&mut log, 0);
    let sample = [0, 1, 2];
    let oracle = c.oracle_records(&sample);
    assert_eq!(audit(&records, &sample, &oracle).failed(), 0);
    records[1].as_mut().expect("drive returned every record").cycles += 1;
    let a = audit(&records, &sample, &oracle);
    assert_eq!((a.checked, a.mismatched, a.missing), (3, 1, 0));
    records[2] = None;
    let a = audit(&records, &sample, &oracle);
    assert_eq!((a.checked, a.mismatched, a.missing), (2, 1, 1));
}
