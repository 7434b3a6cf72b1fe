//! Versioned campaign specifications: the JSON documents clients submit
//! to the service (or drop into its spool directory), validated the same
//! way the telemetry exports validate their snapshots — an explicit
//! `schema_version` that unknown readers must reject rather than
//! misparse.
//!
//! A spec is a *pure description*: workload + target + campaign knobs.
//! Everything derived from it (masks, golden run, ladder) is a
//! deterministic function of the spec, which is what makes journals
//! resumable — a restarted service re-derives the identical mask list
//! and skips the run indices already journaled. The spec digest (FNV-1a
//! over the canonical rendering) is stamped into the journal header so a
//! stale journal can never be resumed against an edited spec.

use crate::json::{parse, Json};
use marvel_accel::FuConfig;
use marvel_core::{
    build_campaign_ladder, build_dsa_ladder, campaign_masks, drive_dsa_masks, drive_masks,
    dsa_campaign_masks, CampaignConfig, DriveOutcome, DsaGolden, DsaLadder, FaultKind, FaultMask,
    Golden, Ladder, ResetMode, RunRecord, TelemetryConfig,
};
use marvel_cpu::CoreConfig;
use marvel_ir::assemble;
use marvel_isa::Isa;
use marvel_soc::{System, Target};
use marvel_telemetry::{json_string, PhaseId};
use marvel_workloads::{accel, mibench};
use std::sync::atomic::AtomicBool;

/// Version of the campaign-spec schema (and of the journal format that
/// embeds it). Bump on any shape change; readers reject unknown versions.
pub const SPEC_SCHEMA_VERSION: u32 = 1;

/// What a campaign injects into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// A MiBench-style CPU benchmark on one ISA flavour.
    Cpu { bench: String, isa: Isa },
    /// A MachSuite-style DSA design; `component` names one Table IV
    /// injection component of the design.
    Dsa { design: String, component: String, fus: usize },
}

/// A validated campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign identity: names the artifact directory and the journal.
    pub id: String,
    pub workload: Workload,
    /// CPU injection target (ignored for DSA — the component names it).
    pub cpu_target: Target,
    pub n_faults: usize,
    pub kind: FaultKind,
    pub seed: u64,
    /// Worker threads for one-shot CLI execution (the service shards
    /// across its own pool instead). 0 = all cores.
    pub workers: usize,
    pub reset_mode: ResetMode,
    pub ladder_rungs: usize,
    pub convergence_exit: bool,
    pub collect_hvf: bool,
    pub taint: bool,
    /// Fast-forward golden prep with the reference model (CPU only).
    pub fast_prep: bool,
}

fn kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::Transient => "transient",
        FaultKind::Permanent => "permanent",
        FaultKind::PermanentStuck0 => "permanent-stuck0",
        FaultKind::PermanentStuck1 => "permanent-stuck1",
    }
}

fn parse_kind(s: &str) -> Result<FaultKind, String> {
    match s {
        "transient" => Ok(FaultKind::Transient),
        "permanent" => Ok(FaultKind::Permanent),
        "permanent-stuck0" => Ok(FaultKind::PermanentStuck0),
        "permanent-stuck1" => Ok(FaultKind::PermanentStuck1),
        other => Err(format!("unknown fault kind '{other}'")),
    }
}

fn isa_name(isa: Isa) -> &'static str {
    match isa {
        Isa::Arm => "arm",
        Isa::X86 => "x86",
        Isa::RiscV => "riscv",
    }
}

fn parse_isa(s: &str) -> Result<Isa, String> {
    match s {
        "arm" => Ok(Isa::Arm),
        "x86" => Ok(Isa::X86),
        "riscv" => Ok(Isa::RiscV),
        other => Err(format!("unknown ISA '{other}' (arm|x86|riscv)")),
    }
}

fn cpu_target_name(t: Target) -> Result<&'static str, String> {
    Ok(match t {
        Target::PrfInt => "prf",
        Target::PrfFp => "prf-fp",
        Target::L1I => "l1i",
        Target::L1D => "l1d",
        Target::L2 => "l2",
        Target::LoadQueue => "lq",
        Target::StoreQueue => "sq",
        Target::Rob => "rob",
        Target::RenameMap => "rename",
        other => return Err(format!("{other:?} is not a CPU spec target")),
    })
}

/// Parse a CPU target name (same vocabulary as the `marvel campaign`
/// `--target` flag).
pub fn parse_cpu_target(s: &str) -> Result<Target, String> {
    Ok(match s {
        "prf" | "rf" => Target::PrfInt,
        "prf-fp" | "fp" => Target::PrfFp,
        "l1i" => Target::L1I,
        "l1d" => Target::L1D,
        "l2" => Target::L2,
        "lq" => Target::LoadQueue,
        "sq" => Target::StoreQueue,
        "rob" => Target::Rob,
        "rename" => Target::RenameMap,
        other => return Err(format!("unknown target '{other}'")),
    })
}

impl CampaignSpec {
    /// Parse and validate a spec document. Rejects missing/unknown
    /// `schema_version`, malformed ids, unknown workloads/targets — a
    /// stale or hand-mangled spec fails loudly at submission, not
    /// mid-campaign.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let v = parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        if v.get("type").and_then(Json::as_str) != Some("campaign_spec") {
            return Err("spec lacks \"type\":\"campaign_spec\"".into());
        }
        let version =
            v.get("schema_version").and_then(Json::as_u64).ok_or("spec has no schema_version field")?;
        if version as u32 != SPEC_SCHEMA_VERSION {
            return Err(format!(
                "unknown spec schema_version {version} (this reader understands {SPEC_SCHEMA_VERSION})"
            ));
        }
        let id = v.get("id").and_then(Json::as_str).ok_or("spec has no id")?.to_string();
        if id.is_empty()
            || id.len() > 64
            || !id.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            || id.starts_with('.')
            || id.starts_with('_')
        {
            return Err(format!(
                "bad campaign id {id:?}: want 1-64 chars of [a-zA-Z0-9._-], not starting with '.' or '_'"
            ));
        }
        let w = v.get("workload").ok_or("spec has no workload")?;
        let workload = match w.get("kind").and_then(Json::as_str) {
            Some("cpu") => {
                let bench = w.get("bench").and_then(Json::as_str).ok_or("cpu workload has no bench")?;
                if !mibench::NAMES.contains(&bench) {
                    return Err(format!("unknown benchmark '{bench}'"));
                }
                let isa = parse_isa(w.get("isa").and_then(Json::as_str).unwrap_or("riscv"))?;
                Workload::Cpu { bench: bench.to_string(), isa }
            }
            Some("dsa") => {
                let design = w
                    .get("design")
                    .and_then(Json::as_str)
                    .ok_or("dsa workload has no design")?
                    .to_uppercase();
                let d = accel::designs()
                    .into_iter()
                    .find(|d| d.name == design)
                    .ok_or_else(|| format!("unknown design '{design}'"))?;
                let component = match w.get("component").and_then(Json::as_str) {
                    Some(c) => {
                        if !d.components.iter().any(|comp| comp.name == c) {
                            return Err(format!("design {design} has no component '{c}'"));
                        }
                        c.to_string()
                    }
                    None => d.components[0].name.to_string(),
                };
                let fus = w.get("fus").and_then(Json::as_usize).unwrap_or(4).clamp(1, 64);
                Workload::Dsa { design, component, fus }
            }
            _ => return Err("workload.kind must be \"cpu\" or \"dsa\"".into()),
        };
        let cpu_target = parse_cpu_target(v.get("target").and_then(Json::as_str).unwrap_or("prf"))?;
        let n_faults = v.get("faults").and_then(Json::as_usize).unwrap_or(100);
        if n_faults == 0 {
            return Err("spec asks for 0 faults".into());
        }
        let kind = parse_kind(v.get("fault_kind").and_then(Json::as_str).unwrap_or("transient"))?;
        let defaults = CampaignConfig::default();
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(defaults.seed);
        let workers = v.get("workers").and_then(Json::as_usize).unwrap_or(0);
        let reset_mode = match v.get("reset_mode").and_then(Json::as_str) {
            None => ResetMode::default(),
            Some(s) => {
                ResetMode::parse(s).ok_or_else(|| format!("unknown reset_mode '{s}' (clone|dirty)"))?
            }
        };
        let ladder_rungs =
            v.get("ladder_rungs").and_then(Json::as_usize).unwrap_or(defaults.ladder_rungs);
        let convergence_exit = v.get("convergence_exit").and_then(Json::as_bool).unwrap_or(false);
        let collect_hvf = v.get("hvf").and_then(Json::as_bool).unwrap_or(false);
        let taint = v.get("taint").and_then(Json::as_bool).unwrap_or(false);
        let fast_prep = v.get("fast_prep").and_then(Json::as_bool).unwrap_or(false);
        Ok(CampaignSpec {
            id,
            workload,
            cpu_target,
            n_faults,
            kind,
            seed,
            workers,
            reset_mode,
            ladder_rungs,
            convergence_exit,
            collect_hvf,
            taint,
            fast_prep,
        })
    }

    /// Canonical single-line rendering: fixed field order, every field
    /// explicit. `parse(render(spec)) == spec`, and the digest is defined
    /// over exactly this form, so two submissions that differ only in
    /// JSON formatting or field order share a digest.
    pub fn render(&self) -> String {
        let workload = match &self.workload {
            Workload::Cpu { bench, isa } => format!(
                "{{\"kind\":\"cpu\",\"bench\":{},\"isa\":\"{}\"}}",
                json_string(bench),
                isa_name(*isa)
            ),
            Workload::Dsa { design, component, fus } => format!(
                "{{\"kind\":\"dsa\",\"design\":{},\"component\":{},\"fus\":{fus}}}",
                json_string(design),
                json_string(component)
            ),
        };
        format!(
            "{{\"type\":\"campaign_spec\",\"schema_version\":{SPEC_SCHEMA_VERSION},\"id\":{},\"workload\":{workload},\"target\":\"{}\",\"faults\":{},\"fault_kind\":\"{}\",\"seed\":{},\"workers\":{},\"reset_mode\":\"{}\",\"ladder_rungs\":{},\"convergence_exit\":{},\"hvf\":{},\"taint\":{},\"fast_prep\":{}}}",
            json_string(&self.id),
            cpu_target_name(self.cpu_target).expect("validated at construction"),
            self.n_faults,
            kind_name(self.kind),
            self.seed,
            self.workers,
            match self.reset_mode {
                ResetMode::Clone => "clone",
                ResetMode::Dirty => "dirty",
            },
            self.ladder_rungs,
            self.convergence_exit,
            self.collect_hvf,
            self.taint,
            self.fast_prep,
        )
    }

    /// FNV-1a 64 digest of the canonical rendering, as 16 hex chars.
    /// Stamped into journal headers: resuming a journal whose digest does
    /// not match the submitted spec is an error, never a silent restart.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.render().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    }

    /// The campaign config this spec describes, with the given telemetry.
    pub fn to_config(&self, telemetry: TelemetryConfig) -> CampaignConfig {
        CampaignConfig {
            n_faults: self.n_faults,
            kind: self.kind,
            seed: self.seed,
            collect_hvf: self.collect_hvf,
            workers: self.workers,
            reset_mode: self.reset_mode,
            ladder_rungs: self.ladder_rungs,
            convergence_exit: self.convergence_exit,
            telemetry,
            ..CampaignConfig::default()
        }
    }

    /// Human-oriented one-liner for status displays.
    pub fn describe(&self) -> String {
        match &self.workload {
            Workload::Cpu { bench, isa } => format!(
                "cpu {bench}/{} target {} x{}",
                isa_name(*isa),
                cpu_target_name(self.cpu_target).unwrap_or("?"),
                self.n_faults
            ),
            Workload::Dsa { design, component, .. } => {
                format!("dsa {design}/{component} x{}", self.n_faults)
            }
        }
    }
}

/// The expensive, deterministic derivation of a spec: golden run +
/// checkpoint ladder + mask list. Built once (per service campaign or
/// CLI invocation), then driven incrementally any number of times.
pub struct Prepared {
    pub target: Target,
    pub masks: Vec<FaultMask>,
    pub bit_population: u64,
    pub golden_cycles: u64,
    golden: PreparedGolden,
}

enum PreparedGolden {
    Cpu { golden: Box<Golden>, ladder: Option<Ladder> },
    Dsa { golden: Box<DsaGolden>, ladder: DsaLadder },
}

impl Prepared {
    /// Run golden prep + ladder build + mask derivation for `spec`.
    /// Deterministic: the same spec always yields the same mask list, in
    /// the same order — the foundation of journal resume.
    pub fn new(spec: &CampaignSpec, cc: &CampaignConfig) -> Result<Prepared, String> {
        match &spec.workload {
            Workload::Cpu { bench, isa } => {
                let bin = assemble(&mibench::build(bench), *isa).map_err(|e| e.to_string())?;
                let mut sys = System::new(CoreConfig::table2(*isa));
                sys.load_binary(&bin);
                let golden = cc
                    .telemetry
                    .spans
                    .time(PhaseId::GoldenPrep, || {
                        if spec.fast_prep {
                            Golden::prepare_fast(sys, 200_000_000)
                        } else {
                            Golden::prepare(sys, 200_000_000)
                        }
                    })
                    .map_err(|e| e.to_string())?;
                golden.publish_metrics(&cc.telemetry.registry);
                let ladder = build_campaign_ladder(&golden, cc);
                let target = spec.cpu_target;
                let masks = campaign_masks(&golden, target, cc);
                let bit_population = golden.ckpt.bit_len(target);
                Ok(Prepared {
                    target,
                    masks,
                    bit_population,
                    golden_cycles: golden.exec_cycles,
                    golden: PreparedGolden::Cpu { golden: Box::new(golden), ladder },
                })
            }
            Workload::Dsa { design, component, fus } => {
                let d = accel::designs()
                    .into_iter()
                    .find(|d| d.name == *design)
                    .ok_or_else(|| format!("unknown design '{design}'"))?;
                let comp = d
                    .components
                    .iter()
                    .find(|c| c.name == *component)
                    .ok_or_else(|| format!("design {design} has no component '{component}'"))?;
                let target = comp.target;
                let golden = cc.telemetry.spans.time(PhaseId::GoldenPrep, || {
                    DsaGolden::prepare((d.make)(FuConfig::uniform(*fus)), 100_000_000)
                });
                let ladder = build_dsa_ladder(&golden, cc);
                let masks = dsa_campaign_masks(&golden, target, cc);
                let bit_population = match target {
                    Target::Spm { .. } | Target::RegBank { .. } | Target::Mmr { .. } => {
                        (comp.bytes as u64) * 8
                    }
                    _ => 0,
                };
                Ok(Prepared {
                    target,
                    masks,
                    bit_population,
                    golden_cycles: golden.cycles,
                    golden: PreparedGolden::Dsa { golden: Box::new(golden), ladder },
                })
            }
        }
    }

    /// Fault-site population (bits × cycles) for margin reporting.
    pub fn population(&self) -> u64 {
        self.bit_population.saturating_mul(self.golden_cycles.max(1))
    }

    /// Drive the unskipped masks through the matching worker pool — the
    /// workload-dispatching face of [`drive_masks`]/[`drive_dsa_masks`].
    pub fn drive(
        &self,
        cc: &CampaignConfig,
        skip: &[bool],
        cancel: Option<&AtomicBool>,
        sink: &(dyn Fn(usize, RunRecord) + Sync),
    ) -> DriveOutcome {
        match &self.golden {
            PreparedGolden::Cpu { golden, ladder } => drive_masks(
                golden,
                ladder.as_ref(),
                &self.masks,
                cc,
                self.population(),
                skip,
                cancel,
                sink,
            ),
            PreparedGolden::Dsa { golden, ladder } => {
                let ladder_ref = (!ladder.is_empty()).then_some(ladder);
                drive_dsa_masks(golden, self.target, ladder_ref, &self.masks, cc, skip, cancel, sink)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsa_spec_text() -> &'static str {
        r#"{"type":"campaign_spec","schema_version":1,"id":"fft-a",
            "workload":{"kind":"dsa","design":"fft"},"faults":8,"seed":7}"#
    }

    #[test]
    fn parse_applies_defaults_and_validates() {
        let spec = CampaignSpec::parse(dsa_spec_text()).unwrap();
        assert_eq!(spec.id, "fft-a");
        assert_eq!(
            spec.workload,
            Workload::Dsa { design: "FFT".into(), component: "IMG".into(), fus: 4 }
        );
        assert_eq!(spec.n_faults, 8);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.ladder_rungs, 8);
        assert_eq!(spec.reset_mode, ResetMode::Dirty);
    }

    #[test]
    fn canonical_roundtrip_and_digest_stability() {
        let spec = CampaignSpec::parse(dsa_spec_text()).unwrap();
        let rendered = spec.render();
        let back = CampaignSpec::parse(&rendered).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.digest(), back.digest());
        // Formatting differences don't change the digest; knob changes do.
        let spaced = rendered.replace(":", ": ");
        assert_eq!(CampaignSpec::parse(&spaced).unwrap().digest(), spec.digest());
        let mut other = spec.clone();
        other.seed ^= 1;
        assert_ne!(other.digest(), spec.digest());
    }

    #[test]
    fn rejects_bad_versions_ids_and_workloads() {
        let no_version = r#"{"type":"campaign_spec","id":"x","workload":{"kind":"dsa","design":"FFT"}}"#;
        assert!(CampaignSpec::parse(no_version).unwrap_err().contains("schema_version"));
        let future = r#"{"type":"campaign_spec","schema_version":99,"id":"x","workload":{"kind":"dsa","design":"FFT"}}"#;
        assert!(CampaignSpec::parse(future).unwrap_err().contains("99"));
        let bad_id = r#"{"type":"campaign_spec","schema_version":1,"id":"a/b","workload":{"kind":"dsa","design":"FFT"}}"#;
        assert!(CampaignSpec::parse(bad_id).unwrap_err().contains("bad campaign id"));
        let bad_design = r#"{"type":"campaign_spec","schema_version":1,"id":"x","workload":{"kind":"dsa","design":"NOPE"}}"#;
        assert!(CampaignSpec::parse(bad_design).unwrap_err().contains("NOPE"));
        let bad_bench = r#"{"type":"campaign_spec","schema_version":1,"id":"x","workload":{"kind":"cpu","bench":"nope"}}"#;
        assert!(CampaignSpec::parse(bad_bench).unwrap_err().contains("nope"));
        let bad_comp = r#"{"type":"campaign_spec","schema_version":1,"id":"x","workload":{"kind":"dsa","design":"FFT","component":"NOPE"}}"#;
        assert!(CampaignSpec::parse(bad_comp).unwrap_err().contains("NOPE"));
    }

    #[test]
    fn cpu_spec_roundtrip() {
        let text = r#"{"type":"campaign_spec","schema_version":1,"id":"c1",
            "workload":{"kind":"cpu","bench":"crc32","isa":"x86"},"target":"l1d",
            "faults":5,"fault_kind":"permanent","hvf":true,"taint":true,"fast_prep":true}"#;
        let spec = CampaignSpec::parse(text).unwrap();
        assert_eq!(spec.workload, Workload::Cpu { bench: "crc32".into(), isa: Isa::X86 });
        assert_eq!(spec.cpu_target, Target::L1D);
        assert_eq!(spec.kind, FaultKind::Permanent);
        assert!(spec.collect_hvf && spec.taint && spec.fast_prep);
        assert_eq!(CampaignSpec::parse(&spec.render()).unwrap(), spec);
    }
}
