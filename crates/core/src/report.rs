//! Campaign reporting: the paper's Fig. 3(b) fault-propagation
//! correlation (HVF class × AVF class, from the same runs) and
//! text/CSV rendering of campaign results.

use crate::campaign::{CampaignResult, FaultEffect, HvfEffect, RunRecord};
use std::collections::BTreeMap;

/// Joint HVF × AVF classification counts — only computable because the
/// framework classifies both metrics on the *same* injection runs, the
/// correlation capability the paper highlights as unique.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropagationMatrix {
    /// Masked in hardware (never reached the commit stage); necessarily
    /// software-masked too.
    pub hw_masked: usize,
    /// Architecturally visible at commit but masked by the software layer
    /// — the gap between HVF and AVF.
    pub corrupt_sw_masked: usize,
    /// Architecturally visible and surfaced as a silent data corruption.
    pub corrupt_sdc: usize,
    /// Architecturally visible and surfaced as a crash.
    pub corrupt_crash: usize,
}

impl PropagationMatrix {
    /// Build from records; `None` if the campaign did not collect HVF.
    pub fn from_records(records: &[RunRecord]) -> Option<PropagationMatrix> {
        if records.iter().any(|r| r.hvf.is_none()) {
            return None;
        }
        let mut m = PropagationMatrix::default();
        for r in records {
            match (r.hvf.unwrap(), r.effect) {
                (HvfEffect::Masked, _) => m.hw_masked += 1,
                (HvfEffect::Corruption, FaultEffect::Masked) => m.corrupt_sw_masked += 1,
                (HvfEffect::Corruption, FaultEffect::Sdc) => m.corrupt_sdc += 1,
                (HvfEffect::Corruption, FaultEffect::Crash) => m.corrupt_crash += 1,
            }
        }
        Some(m)
    }

    pub fn total(&self) -> usize {
        self.hw_masked + self.corrupt_sw_masked + self.corrupt_sdc + self.corrupt_crash
    }

    /// Fraction of hardware-visible corruptions the software layer masked
    /// — the paper's explanation for HVF > AVF.
    pub fn software_masking_rate(&self) -> f64 {
        let corrupt = self.corrupt_sw_masked + self.corrupt_sdc + self.corrupt_crash;
        if corrupt == 0 {
            0.0
        } else {
            self.corrupt_sw_masked as f64 / corrupt as f64
        }
    }

    /// Render as the Fig. 3(b)-style propagation report.
    pub fn render(&self) -> String {
        let n = self.total().max(1) as f64;
        format!(
            "fault propagation (n = {}):\n\
             \x20 masked in hardware          : {:>5} ({:>5.1}%)\n\
             \x20 reached commit, SW-masked   : {:>5} ({:>5.1}%)\n\
             \x20 reached commit, SDC         : {:>5} ({:>5.1}%)\n\
             \x20 reached commit, crash       : {:>5} ({:>5.1}%)\n\
             \x20 software masking rate       : {:.1}%\n",
            self.total(),
            self.hw_masked,
            self.hw_masked as f64 / n * 100.0,
            self.corrupt_sw_masked,
            self.corrupt_sw_masked as f64 / n * 100.0,
            self.corrupt_sdc,
            self.corrupt_sdc as f64 / n * 100.0,
            self.corrupt_crash,
            self.corrupt_crash as f64 / n * 100.0,
            self.software_masking_rate() * 100.0,
        )
    }
}

/// Per-structure marvel-taint attribution tallies: for every structure,
/// how many runs first became architecturally visible there (split by
/// final classification) and how many runs were last seen there before
/// the fault was masked. This is the campaign-level "where do faults
/// escape" view the per-run propagation timelines roll up into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructureAttribution {
    /// Runs whose taint first reached architectural state here.
    pub reached_arch: usize,
    /// Runs whose taint was masked while last resident here.
    pub masked: usize,
    /// Of `reached_arch`, runs classified SDC / Crash.
    pub sdc: usize,
    pub crash: usize,
    /// Sums for mean propagation depth/latency (over all runs counted).
    pub hops_sum: usize,
    pub cycle_sum: u64,
}

impl StructureAttribution {
    pub fn runs(&self) -> usize {
        self.reached_arch + self.masked
    }

    /// Mean structure-to-structure hops before the terminal event.
    pub fn mean_hops(&self) -> f64 {
        if self.runs() == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.runs() as f64
        }
    }

    /// Mean cycle of the terminal event (arch-reach or last sighting).
    pub fn mean_cycle(&self) -> f64 {
        if self.runs() == 0 {
            0.0
        } else {
            self.cycle_sum as f64 / self.runs() as f64
        }
    }
}

/// Aggregate per-run attributions by structure; `None` when the campaign
/// ran without taint tracking (no record carries an attribution).
pub fn attribution_by_structure(
    records: &[RunRecord],
) -> Option<BTreeMap<String, StructureAttribution>> {
    if records.iter().all(|r| r.attribution.is_none()) {
        return None;
    }
    let mut out: BTreeMap<String, StructureAttribution> = BTreeMap::new();
    for r in records {
        let Some(a) = &r.attribution else { continue };
        let e = out.entry(a.structure.clone()).or_default();
        if a.reached_arch {
            e.reached_arch += 1;
            match r.effect {
                FaultEffect::Sdc => e.sdc += 1,
                FaultEffect::Crash => e.crash += 1,
                FaultEffect::Masked => {}
            }
        } else {
            e.masked += 1;
        }
        e.hops_sum += a.hops;
        e.cycle_sum += a.cycle;
    }
    Some(out)
}

/// Render the per-structure attribution table.
pub fn render_attribution(map: &BTreeMap<String, StructureAttribution>) -> String {
    let mut s = String::from(
        "taint attribution by structure:\n\
         \x20 structure             arch  masked  sdc  crash  hops~  cycle~\n",
    );
    for (name, a) in map {
        s.push_str(&format!(
            "  {name:<20} {:>5} {:>7} {:>4} {:>6} {:>6.1} {:>7.0}\n",
            a.reached_arch,
            a.masked,
            a.sdc,
            a.crash,
            a.mean_hops(),
            a.mean_cycle(),
        ));
    }
    s
}

/// CSV rendering of the attribution table (schema-versioned like all
/// campaign artifacts; readable back via `check_snapshot_version`).
pub fn attribution_csv(map: &BTreeMap<String, StructureAttribution>) -> String {
    let mut out = format!(
        "# schema_version={}\nstructure,reached_arch,masked,sdc,crash,mean_hops,mean_cycle\n",
        marvel_telemetry::SCHEMA_VERSION
    );
    for (name, a) in map {
        out.push_str(&format!(
            "{name},{},{},{},{},{:.3},{:.1}\n",
            a.reached_arch,
            a.masked,
            a.sdc,
            a.crash,
            a.mean_hops(),
            a.mean_cycle()
        ));
    }
    out
}

/// JSONL rendering of the attribution table (schema line first).
pub fn attribution_jsonl(map: &BTreeMap<String, StructureAttribution>) -> String {
    let mut out =
        format!("{{\"type\":\"schema\",\"schema_version\":{}}}\n", marvel_telemetry::SCHEMA_VERSION);
    for (name, a) in map {
        out.push_str(&format!(
            "{{\"type\":\"attribution\",\"structure\":{},\"reached_arch\":{},\"masked\":{},\"sdc\":{},\"crash\":{},\"mean_hops\":{:.3},\"mean_cycle\":{:.1}}}\n",
            marvel_telemetry::json_string(name),
            a.reached_arch,
            a.masked,
            a.sdc,
            a.crash,
            a.mean_hops(),
            a.mean_cycle()
        ));
    }
    out
}

/// Crash-cause breakdown (trap tags → counts).
pub fn crash_breakdown(records: &[RunRecord]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for r in records {
        if let Some(tag) = r.trap {
            *out.entry(tag).or_insert(0) += 1;
        }
    }
    out
}

/// CSV line (plus header) for aggregating campaigns across scripts.
pub fn csv_row(label: &str, res: &CampaignResult) -> String {
    format!(
        "{label},{},{},{:.5},{:.5},{:.5},{},{:.5}\n",
        res.target.name(),
        res.n(),
        res.avf(),
        res.sdc_avf(),
        res.crash_avf(),
        res.hvf().map(|h| format!("{h:.5}")).unwrap_or_default(),
        res.early_termination_rate()
    )
}

/// Header matching [`csv_row`].
pub const CSV_HEADER: &str = "label,target,faults,avf,sdc,crash,hvf,early_term\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(effect: FaultEffect, hvf: HvfEffect) -> RunRecord {
        RunRecord {
            effect,
            hvf: Some(hvf),
            trap: None,
            early_terminated: false,
            converged: false,
            cycles: 1,
            forensics: None,
            attribution: None,
        }
    }

    #[test]
    fn matrix_partitions_and_rates() {
        let records = vec![
            rec(FaultEffect::Masked, HvfEffect::Masked),
            rec(FaultEffect::Masked, HvfEffect::Masked),
            rec(FaultEffect::Masked, HvfEffect::Corruption), // SW-masked
            rec(FaultEffect::Sdc, HvfEffect::Corruption),
            rec(FaultEffect::Crash, HvfEffect::Corruption),
        ];
        let m = PropagationMatrix::from_records(&records).unwrap();
        assert_eq!(m.hw_masked, 2);
        assert_eq!(m.corrupt_sw_masked, 1);
        assert_eq!(m.corrupt_sdc, 1);
        assert_eq!(m.corrupt_crash, 1);
        assert_eq!(m.total(), 5);
        assert!((m.software_masking_rate() - 1.0 / 3.0).abs() < 1e-12);
        let text = m.render();
        assert!(text.contains("software masking rate"));
    }

    #[test]
    fn matrix_requires_hvf() {
        let records = vec![RunRecord {
            effect: FaultEffect::Masked,
            hvf: None,
            trap: None,
            early_terminated: false,
            converged: false,
            cycles: 1,
            forensics: None,
            attribution: None,
        }];
        assert!(PropagationMatrix::from_records(&records).is_none());
    }

    #[test]
    fn attribution_aggregates_by_structure() {
        use marvel_telemetry::Attribution;
        let attr = |reached: bool, st: &str, cycle: u64, hops: usize| Attribution {
            reached_arch: reached,
            structure: st.into(),
            cycle,
            hops,
        };
        let mut r1 = rec(FaultEffect::Sdc, HvfEffect::Corruption);
        r1.attribution = Some(attr(true, "ROB", 100, 3));
        let mut r2 = rec(FaultEffect::Crash, HvfEffect::Corruption);
        r2.attribution = Some(attr(true, "ROB", 200, 5));
        let mut r3 = rec(FaultEffect::Masked, HvfEffect::Masked);
        r3.attribution = Some(attr(false, "L1D", 50, 1));
        let records = [r1, r2, r3];
        let map = attribution_by_structure(&records).unwrap();
        assert_eq!(map["ROB"].reached_arch, 2);
        assert_eq!(map["ROB"].sdc, 1);
        assert_eq!(map["ROB"].crash, 1);
        assert!((map["ROB"].mean_cycle() - 150.0).abs() < 1e-9);
        assert!((map["ROB"].mean_hops() - 4.0).abs() < 1e-9);
        assert_eq!(map["L1D"].masked, 1);
        assert_eq!(map["L1D"].reached_arch, 0);
        let table = render_attribution(&map);
        assert!(table.contains("ROB") && table.contains("L1D"));
        let csv = attribution_csv(&map);
        assert!(csv.starts_with("# schema_version="));
        assert!(marvel_telemetry::check_snapshot_version(&csv).is_ok());
        let jsonl = attribution_jsonl(&map);
        assert!(marvel_telemetry::check_snapshot_version(&jsonl).is_ok());
        assert_eq!(jsonl.lines().count(), 3);
        // Taint-off campaigns yield no table at all.
        assert!(attribution_by_structure(&[rec(FaultEffect::Masked, HvfEffect::Masked)]).is_none());
    }

    #[test]
    fn crash_tags_counted() {
        let mut r1 = rec(FaultEffect::Crash, HvfEffect::Corruption);
        r1.trap = Some("mem-fault");
        let mut r2 = rec(FaultEffect::Crash, HvfEffect::Corruption);
        r2.trap = Some("mem-fault");
        let mut r3 = rec(FaultEffect::Crash, HvfEffect::Corruption);
        r3.trap = Some("watchdog");
        let b = crash_breakdown(&[r1, r2, r3]);
        assert_eq!(b["mem-fault"], 2);
        assert_eq!(b["watchdog"], 1);
    }
}
