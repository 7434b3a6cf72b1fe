//! `marvel campaign` and `marvel dsa` honour `--workers`, process
//! boundary included: a one-worker campaign's metrics snapshot holds
//! exactly one per-worker run counter, whatever the host's core count.

use gem5_marvel::serve::json::{self, Json};
use std::path::Path;
use std::process::Command;

/// Names of the `<scope>.worker<N>.runs` counters in a metrics snapshot.
fn worker_run_counters(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("metrics snapshot written");
    text.lines()
        .map(|l| json::parse(l).expect("snapshot line is JSON"))
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("counter"))
        .filter_map(|v| v.get("name").and_then(Json::as_str).map(str::to_string))
        .filter(|n| n.contains(".worker") && n.ends_with(".runs"))
        .collect()
}

#[test]
fn campaign_and_dsa_run_on_the_requested_worker_count() {
    let dir = std::env::temp_dir().join(format!("marvel_cli_workers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (cmd, workload, scope) in [("campaign", "crc32", "campaign"), ("dsa", "fft", "dsa")] {
        let metrics = dir.join(format!("{cmd}_metrics.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_marvel"))
            .args([cmd, workload, "--faults", "8", "--workers", "1", "--metrics"])
            .arg(&metrics)
            .output()
            .expect("run marvel");
        assert!(out.status.success(), "marvel {cmd} failed: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(worker_run_counters(&metrics), [format!("{scope}.worker0.runs")], "marvel {cmd}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
