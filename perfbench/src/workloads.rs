//! The benchmark's workloads: fixed lists of campaigns, each a slice of
//! the paper's evaluation grid, written as the campaign specs a user
//! would submit. A spec sets only workload, target, fault kind, faults,
//! seed and workers; every engine knob comes from the spec defaults, so
//! the benchmark runs what `marvel campaign` and `marvel serve` run.

use marvel_serve::SPEC_SCHEMA_VERSION;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 2] = ["cpu_transient", "dsa_table4"];

/// One campaign of a workload: everything of its spec except seed and
/// workers, which the run supplies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDef {
    /// Short label, unique within the workload (also the spec id stem).
    pub label: String,
    /// The spec's `workload` object.
    pub workload_json: String,
    /// CPU injection target (`prf`, `l1i`, ...); DSA specs name their
    /// component in `workload_json` instead and keep the default.
    pub target: &'static str,
    pub kind: &'static str,
    pub faults: usize,
    /// Program identity: campaigns with equal keys share one binary and
    /// golden run (used to time fault-free simulation once per program).
    pub program: String,
}

impl CampaignDef {
    /// The campaign spec document for `seed` and `workers`.
    pub fn spec_text(&self, seed: u64, workers: usize) -> String {
        format!(
            "{{\"type\":\"campaign_spec\",\"schema_version\":{SPEC_SCHEMA_VERSION},\"id\":\"{}\",\
             \"workload\":{},\"target\":\"{}\",\"fault_kind\":\"{}\",\"faults\":{},\"seed\":{seed},\
             \"workers\":{workers}}}",
            self.label, self.workload_json, self.target, self.kind, self.faults
        )
    }
}

/// Faults per campaign. Sized so a 55 s run makes two cpu_transient
/// passes of about 24 s (a quarter of it setup) on a 2-vCPU host, and
/// four or five dsa_table4 passes of about 10 s. The CPU pass is long
/// because its runs_per_s varies with the fault sample: a run that hangs
/// until the watchdog costs several times a normal one.
const CPU_TRANSIENT_FAULTS: usize = 36;
const DSA_TRANSIENT_FAULTS: usize = 120;
const DSA_PERMANENT_FAULTS: usize = 60;

/// The campaigns of `workload`, or `None` for an unknown name. `faults`
/// overrides the per-campaign fault count (tests run tiny passes).
pub fn campaigns(workload: &str, faults: Option<usize>) -> Option<Vec<CampaignDef>> {
    let mut out = Vec::new();
    match workload {
        // Figs. 4-8 (Figs. 9-11 reuse the same records): single-bit
        // transients. PRF, L1I and L1D pack into lanes and restore from
        // ladder rungs; LQ and SQ cannot pack and step the scalar
        // pipeline from a rung.
        "cpu_transient" => {
            for (bench, isa) in [("qsort", "riscv"), ("sha", "arm")] {
                for target in ["prf", "l1i", "l1d", "lq", "sq"] {
                    out.push(CampaignDef {
                        label: format!("{bench}-{isa}-{target}"),
                        workload_json: format!(
                            "{{\"kind\":\"cpu\",\"bench\":\"{bench}\",\"isa\":\"{isa}\"}}"
                        ),
                        target,
                        kind: "transient",
                        faults: faults.unwrap_or(CPU_TRANSIENT_FAULTS),
                        program: format!("{bench}/{isa}"),
                    });
                }
            }
        }
        // Table IV: every component of the eight MachSuite designs, under
        // transients (which ride the event engine's block warp) and
        // permanents (which defeat it).
        "dsa_table4" => {
            for d in marvel_workloads::accel::designs() {
                for comp in &d.components {
                    for (kind, n) in
                        [("transient", DSA_TRANSIENT_FAULTS), ("permanent", DSA_PERMANENT_FAULTS)]
                    {
                        out.push(CampaignDef {
                            label: format!("{}-{}-{kind}", d.name, comp.name),
                            workload_json: format!(
                                "{{\"kind\":\"dsa\",\"design\":\"{}\",\"component\":\"{}\"}}",
                                d.name, comp.name
                            ),
                            target: "prf",
                            kind,
                            faults: faults.unwrap_or(n),
                            program: d.name.to_string(),
                        });
                    }
                }
            }
        }
        _ => return None,
    }
    Some(out)
}
