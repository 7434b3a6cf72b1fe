//! Campaign artifact exports, rebuilt from the complete record set in
//! run-index order. Because every export is a pure function of the
//! ordered records (which are themselves per-mask deterministic), a
//! campaign that was killed and resumed produces byte-identical artifacts
//! to one that ran uninterrupted — the crash-recovery tests pin this.

use crate::journal::encode_record;
use crate::spec::{CampaignSpec, Prepared};
use marvel_core::{
    attribution_by_structure, attribution_csv, attribution_jsonl, csv_row, CampaignConfig, RunRecord,
    CSV_HEADER,
};
use marvel_telemetry::SCHEMA_VERSION;
use std::path::Path;

/// Per-record detail table, CSV flavour.
pub fn render_records_csv(records: &[RunRecord]) -> String {
    let mut out = format!(
        "# schema_version={SCHEMA_VERSION}\nidx,effect,hvf,trap,early_terminated,converged,cycles\n"
    );
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "{i},{:?},{},{},{},{},{}\n",
            r.effect,
            r.hvf.map(|h| format!("{h:?}")).unwrap_or_default(),
            r.trap.unwrap_or(""),
            r.early_terminated,
            r.converged,
            r.cycles
        ));
    }
    out
}

/// Per-record detail table, JSONL flavour (same line encoding as the
/// journal, so journal and export tooling share a parser).
pub fn render_records_jsonl(records: &[RunRecord]) -> String {
    let mut out = format!("{{\"type\":\"schema\",\"schema_version\":{SCHEMA_VERSION}}}\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&encode_record(i, r));
        out.push('\n');
    }
    out
}

/// Campaign summary row (the `marvel campaign` report surface as CSV).
pub fn render_summary_csv(spec: &CampaignSpec, prepared: &Prepared, records: &[RunRecord]) -> String {
    let res = prepared.result(records.to_vec(), CampaignConfig::default().confidence);
    let mut out = String::from(CSV_HEADER);
    out.push_str(&csv_row(&spec.id, &res));
    out
}

/// Write the full artifact set for a completed campaign into `dir`:
/// `records.csv`, `records.jsonl`, `summary.csv`, plus
/// `attribution.csv`/`attribution.jsonl` when taint attribution was
/// collected. Returns the list of files written.
pub fn write_exports(
    dir: &Path,
    spec: &CampaignSpec,
    prepared: &Prepared,
    records: &[RunRecord],
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut written = Vec::new();
    let mut put = |name: &str, body: String| -> Result<(), String> {
        std::fs::write(dir.join(name), body)
            .map_err(|e| format!("writing {}: {e}", dir.join(name).display()))?;
        written.push(name.to_string());
        Ok(())
    };
    put("records.csv", render_records_csv(records))?;
    put("records.jsonl", render_records_jsonl(records))?;
    put("summary.csv", render_summary_csv(spec, prepared, records))?;
    if let Some(map) = attribution_by_structure(records) {
        put("attribution.csv", attribution_csv(&map))?;
        put("attribution.jsonl", attribution_jsonl(&map))?;
    }
    Ok(written)
}
