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
//!
//! `marvel campaign` and `marvel dsa` describe their campaigns with the
//! same type: they start from [`CampaignSpec::new`] (the defaults
//! [`CampaignSpec::parse`] gives absent keys), apply their flags, and run
//! [`CampaignSpec::to_config`] — so a CLI run and a submitted spec with
//! the same fields get the same config.

use crate::json::{parse, Json};
use marvel_accel::FuConfig;
use marvel_core::{
    build_campaign_ladder, build_dsa_ladder, campaign_masks, drive_dsa_masks, drive_masks,
    dsa_campaign_masks, CampaignConfig, CampaignResult, DriveOutcome, DsaGolden, DsaLadder, FaultKind,
    FaultMask, Golden, Ladder, RunRecord, TelemetryConfig,
};
use marvel_cpu::CoreConfig;
use marvel_ir::assemble;
use marvel_isa::Isa;
use marvel_soc::{System, Target};
use marvel_telemetry::{json_string, PhaseId};
use marvel_workloads::accel::{self, DsaDesign};
use marvel_workloads::mibench;
use std::sync::atomic::AtomicBool;

/// Version of the campaign-spec schema [`CampaignSpec::render`] writes.
/// [`CampaignSpec::parse`] also reads version 1, which differs only in
/// carrying `reset_mode` (`clone|dirty`, an oracle selector: accepted and
/// ignored). Bump on any shape change; readers reject unknown versions.
pub const SPEC_SCHEMA_VERSION: u32 = 2;

/// Top-level keys of a v2 spec; v1 adds `reset_mode`.
const SPEC_KEYS: [&str; 14] = [
    "type",
    "schema_version",
    "id",
    "workload",
    "target",
    "faults",
    "fault_kind",
    "seed",
    "workers",
    "ladder_rungs",
    "convergence_exit",
    "hvf",
    "taint",
    "fast_prep",
];

/// What a campaign injects into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// A MiBench-style CPU benchmark on one ISA flavour.
    Cpu { bench: String, isa: Isa },
    /// A MachSuite-style DSA design; `component` names one Table IV
    /// injection component of the design.
    Dsa { design: String, component: String, fus: usize },
}

impl Workload {
    /// A CPU workload; errors on a benchmark `mibench` does not know.
    pub fn cpu(bench: &str, isa: Isa) -> Result<Workload, String> {
        if !mibench::NAMES.contains(&bench) {
            return Err(format!("unknown benchmark '{bench}' (try `marvel list`)"));
        }
        Ok(Workload::Cpu { bench: bench.to_string(), isa })
    }

    /// A DSA workload on `design` (any case) injecting `component` (the
    /// design's first when `None`), with `fus` functional units per class
    /// (4 when `None`, clamped to `1..=64`).
    pub fn dsa(design: &str, component: Option<&str>, fus: Option<usize>) -> Result<Workload, String> {
        let d = find_design(design)?;
        let component = match component {
            None => d.components[0].name,
            Some(c) => d
                .components
                .iter()
                .map(|comp| comp.name)
                .find(|&name| name == c)
                .ok_or_else(|| format!("design {} has no component '{c}'", d.name))?,
        };
        Ok(Workload::Dsa {
            design: d.name.to_string(),
            component: component.to_string(),
            fus: fus.unwrap_or(4).clamp(1, 64),
        })
    }
}

/// The MachSuite design named `name` (any case).
pub fn find_design(name: &str) -> Result<DsaDesign, String> {
    let upper = name.to_uppercase();
    accel::designs()
        .into_iter()
        .find(|d| d.name == upper)
        .ok_or_else(|| format!("unknown design '{upper}' (try `marvel list`)"))
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

/// Parse a fault kind (`transient|permanent|permanent-stuck0|permanent-stuck1`).
pub fn parse_kind(s: &str) -> Result<FaultKind, String> {
    match s {
        "transient" => Ok(FaultKind::Transient),
        "permanent" => Ok(FaultKind::Permanent),
        "permanent-stuck0" => Ok(FaultKind::PermanentStuck0),
        "permanent-stuck1" => Ok(FaultKind::PermanentStuck1),
        other => Err(format!(
            "unknown fault kind '{other}' (transient|permanent|permanent-stuck0|permanent-stuck1)"
        )),
    }
}

fn isa_name(isa: Isa) -> &'static str {
    match isa {
        Isa::Arm => "arm",
        Isa::X86 => "x86",
        Isa::RiscV => "riscv",
    }
}

/// Parse an ISA name, in any case (`arm|x86|riscv`, plus `risc-v`/`rv`).
pub fn parse_isa(s: &str) -> Result<Isa, String> {
    match s.to_lowercase().as_str() {
        "arm" => Ok(Isa::Arm),
        "x86" => Ok(Isa::X86),
        "riscv" | "risc-v" | "rv" => Ok(Isa::RiscV),
        _ => Err(format!("unknown ISA '{s}' (arm|x86|riscv)")),
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

/// Parse a CPU target name, in any case (same vocabulary as the
/// `marvel campaign` `--target` flag).
pub fn parse_cpu_target(s: &str) -> Result<Target, String> {
    Ok(match s.to_lowercase().as_str() {
        "prf" | "rf" => Target::PrfInt,
        "prf-fp" | "fp" => Target::PrfFp,
        "l1i" => Target::L1I,
        "l1d" => Target::L1D,
        "l2" => Target::L2,
        "lq" => Target::LoadQueue,
        "sq" => Target::StoreQueue,
        "rob" => Target::Rob,
        "rename" => Target::RenameMap,
        _ => return Err(format!("unknown target '{s}' (prf|prf-fp|l1i|l1d|l2|lq|sq|rob|rename)")),
    })
}

/// One JSON object of a spec, read strictly: a key outside the schema, a
/// repeated key or a value of the wrong type is an error naming the key.
struct Fields<'a> {
    /// `spec` or `workload`, for error messages.
    what: &'static str,
    fields: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn of(v: &'a Json, what: &'static str) -> Result<Fields<'a>, String> {
        match v {
            Json::Object(fields) => Ok(Fields { what, fields }),
            _ => Err(format!("{what} must be a JSON object")),
        }
    }

    /// Reject every key not in `allowed`, and every repeated key.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        for (i, (key, _)) in self.fields.iter().enumerate() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown {} key {key:?}", self.what));
            }
            if self.fields[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("repeated {} key {key:?}", self.what));
            }
        }
        Ok(())
    }

    fn raw(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get<T>(
        &self,
        key: &str,
        want: &str,
        read: fn(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => {
                read(v).map(Some).ok_or_else(|| format!("{} key {key:?} must be {want}", self.what))
            }
        }
    }

    fn str(&self, key: &str) -> Result<Option<&'a str>, String> {
        self.get(key, "a string", Json::as_str)
    }

    fn uint(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key, "a non-negative integer", Json::as_u64)
    }

    fn count(&self, key: &str) -> Result<Option<usize>, String> {
        self.get(key, "a non-negative integer", Json::as_usize)
    }

    fn bool(&self, key: &str) -> Result<Option<bool>, String> {
        self.get(key, "true or false", Json::as_bool)
    }
}

impl CampaignSpec {
    /// A spec for `workload` with every other field at its default: the
    /// values [`parse`](Self::parse) gives absent keys, and the ones
    /// `marvel campaign` / `marvel dsa` start from before applying their
    /// flags. Engine fields default to [`CampaignConfig::default`]; the
    /// fault count defaults to 100. Errors on a malformed `id`.
    pub fn new(id: &str, workload: Workload) -> Result<CampaignSpec, String> {
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
        let cc = CampaignConfig::default();
        Ok(CampaignSpec {
            id: id.to_string(),
            workload,
            cpu_target: Target::PrfInt,
            n_faults: 100,
            kind: cc.kind,
            seed: cc.seed,
            workers: cc.workers,
            ladder_rungs: cc.ladder_rungs,
            convergence_exit: cc.convergence_exit,
            collect_hvf: cc.collect_hvf,
            taint: cc.telemetry.taint,
            fast_prep: false,
        })
    }

    /// Parse and validate a spec document. Rejects missing/unknown
    /// `schema_version`, malformed ids, unknown workloads/targets, keys
    /// outside the schema and values of the wrong type — a stale or
    /// hand-mangled spec fails loudly at submission, not mid-campaign.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let v = parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        let top = Fields::of(&v, "spec")?;
        if top.str("type")? != Some("campaign_spec") {
            return Err("spec lacks \"type\":\"campaign_spec\"".into());
        }
        match top.uint("schema_version")?.ok_or("spec has no schema_version field")? {
            2 => top.only(&SPEC_KEYS)?,
            1 => {
                top.only(&[&SPEC_KEYS[..], &["reset_mode"]].concat())?;
                if let Some(mode) = top.str("reset_mode")? {
                    if !matches!(mode, "clone" | "dirty") {
                        return Err(format!("unknown reset_mode '{mode}' (clone|dirty)"));
                    }
                }
            }
            version => {
                return Err(format!(
                    "unknown spec schema_version {version} (this reader understands 1 and {SPEC_SCHEMA_VERSION})"
                ))
            }
        }
        let id = top.str("id")?.ok_or("spec has no id")?;
        let w = Fields::of(top.raw("workload").ok_or("spec has no workload")?, "workload")?;
        let workload = match w.str("kind")? {
            Some("cpu") => {
                w.only(&["kind", "bench", "isa"])?;
                let bench = w.str("bench")?.ok_or("cpu workload has no bench")?;
                Workload::cpu(bench, w.str("isa")?.map_or(Ok(Isa::RiscV), parse_isa)?)?
            }
            Some("dsa") => {
                w.only(&["kind", "design", "component", "fus"])?;
                let design = w.str("design")?.ok_or("dsa workload has no design")?;
                Workload::dsa(design, w.str("component")?, w.count("fus")?)?
            }
            _ => return Err("workload.kind must be \"cpu\" or \"dsa\"".into()),
        };
        let mut spec = CampaignSpec::new(id, workload)?;
        if let Some(t) = top.str("target")? {
            spec.cpu_target = parse_cpu_target(t)?;
        }
        if let Some(n) = top.count("faults")? {
            if n == 0 {
                return Err("spec asks for 0 faults".into());
            }
            spec.n_faults = n;
        }
        if let Some(k) = top.str("fault_kind")? {
            spec.kind = parse_kind(k)?;
        }
        spec.seed = top.uint("seed")?.unwrap_or(spec.seed);
        spec.workers = top.count("workers")?.unwrap_or(spec.workers);
        spec.ladder_rungs = top.count("ladder_rungs")?.unwrap_or(spec.ladder_rungs);
        spec.convergence_exit = top.bool("convergence_exit")?.unwrap_or(spec.convergence_exit);
        spec.collect_hvf = top.bool("hvf")?.unwrap_or(spec.collect_hvf);
        spec.taint = top.bool("taint")?.unwrap_or(spec.taint);
        spec.fast_prep = top.bool("fast_prep")?.unwrap_or(spec.fast_prep);
        Ok(spec)
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
            "{{\"type\":\"campaign_spec\",\"schema_version\":{SPEC_SCHEMA_VERSION},\"id\":{},\"workload\":{workload},\"target\":\"{}\",\"faults\":{},\"fault_kind\":\"{}\",\"seed\":{},\"workers\":{},\"ladder_rungs\":{},\"convergence_exit\":{},\"hvf\":{},\"taint\":{},\"fast_prep\":{}}}",
            json_string(&self.id),
            cpu_target_name(self.cpu_target).expect("validated at construction"),
            self.n_faults,
            kind_name(self.kind),
            self.seed,
            self.workers,
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

    /// The campaign config this spec describes: its fields over
    /// [`CampaignConfig::default`], with `telemetry` and the spec's taint
    /// switch.
    pub fn to_config(&self, telemetry: TelemetryConfig) -> CampaignConfig {
        CampaignConfig {
            n_faults: self.n_faults,
            kind: self.kind,
            seed: self.seed,
            collect_hvf: self.collect_hvf,
            workers: self.workers,
            ladder_rungs: self.ladder_rungs,
            convergence_exit: self.convergence_exit,
            telemetry: TelemetryConfig { taint: self.taint, ..telemetry },
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
        let reg = &cc.telemetry.registry;
        match &spec.workload {
            Workload::Cpu { bench, isa } => {
                let golden = cc.telemetry.spans.time(PhaseId::GoldenPrep, || {
                    let bin = assemble(&mibench::build(bench), *isa).map_err(|e| e.to_string())?;
                    let mut sys = System::new(CoreConfig::table2(*isa));
                    sys.load_binary(&bin);
                    if spec.fast_prep {
                        Golden::prepare_fast(sys, 200_000_000)
                    } else {
                        Golden::prepare(sys, 200_000_000)
                    }
                    .map_err(|e| e.to_string())
                })?;
                golden.publish_metrics(reg);
                let target = spec.cpu_target;
                let bit_population = golden.ckpt.bit_len(target);
                reg.publish("campaign.bit_population", bit_population);
                reg.publish("campaign.golden_exec_cycles", golden.exec_cycles);
                let ladder = build_campaign_ladder(&golden, cc);
                let masks = campaign_masks(&golden, target, cc);
                Ok(Prepared {
                    target,
                    masks,
                    bit_population,
                    golden_cycles: golden.exec_cycles,
                    golden: PreparedGolden::Cpu { golden: Box::new(golden), ladder },
                })
            }
            Workload::Dsa { design, component, fus } => {
                let d = find_design(design)?;
                let comp = d
                    .components
                    .iter()
                    .find(|c| c.name == *component)
                    .ok_or_else(|| format!("design {design} has no component '{component}'"))?;
                let target = comp.target;
                // The cycle-oracle run lands in GoldenPrep, the static
                // schedule build and trace recording in ScheduleBuild.
                let golden = DsaGolden::prepare_spanned(
                    (d.make)(FuConfig::uniform(*fus)),
                    100_000_000,
                    &cc.telemetry.spans,
                );
                golden.publish_metrics(reg);
                let ladder = build_dsa_ladder(&golden, cc);
                let masks = dsa_campaign_masks(&golden, target, cc);
                Ok(Prepared {
                    target,
                    masks,
                    bit_population: golden.harness.bit_len(target),
                    golden_cycles: golden.cycles,
                    golden: PreparedGolden::Dsa { golden: Box::new(golden), ladder },
                })
            }
        }
    }

    /// The CPU golden run (for directed re-runs of single masks, such as
    /// pipeline trace pairs); `None` for a DSA campaign.
    pub fn cpu_golden(&self) -> Option<&Golden> {
        match &self.golden {
            PreparedGolden::Cpu { golden, .. } => Some(golden),
            PreparedGolden::Dsa { .. } => None,
        }
    }

    /// The campaign result over `records`, one per mask in mask order.
    pub fn result(&self, records: Vec<RunRecord>, confidence: f64) -> CampaignResult {
        CampaignResult {
            target: self.target,
            records,
            bit_population: self.bit_population,
            golden_exec_cycles: self.golden_cycles,
            confidence,
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
    use marvel_core::ResetMode;
    use marvel_telemetry::{Registry, SpanCollector};

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
        assert_eq!(spec.to_config(TelemetryConfig::default()).reset_mode, ResetMode::Dirty);
    }

    #[test]
    fn parse_defaults_are_the_constructor_defaults() {
        let text = r#"{"type":"campaign_spec","schema_version":2,"id":"c",
            "workload":{"kind":"cpu","bench":"crc32"}}"#;
        let parsed = CampaignSpec::parse(text).unwrap();
        let built = CampaignSpec::new("c", Workload::cpu("crc32", Isa::RiscV).unwrap()).unwrap();
        assert_eq!(parsed, built);
        assert_eq!(built.n_faults, 100);
        let (cc, shipped) = (built.to_config(TelemetryConfig::default()), CampaignConfig::default());
        assert_eq!((cc.kind, cc.seed, cc.workers), (shipped.kind, shipped.seed, shipped.workers));
        assert_eq!(
            (cc.ladder_rungs, cc.convergence_exit),
            (shipped.ladder_rungs, shipped.convergence_exit)
        );
        assert_eq!((cc.lane_width, cc.dsa_engine), (shipped.lane_width, shipped.dsa_engine));
        assert_eq!(cc.reset_mode, shipped.reset_mode);
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
    fn renders_schema_v2_without_reset_mode() {
        let rendered = CampaignSpec::parse(dsa_spec_text()).unwrap().render();
        assert!(rendered.contains("\"schema_version\":2,"), "{rendered}");
        assert!(!rendered.contains("reset_mode"), "{rendered}");
    }

    #[test]
    fn v1_specs_with_reset_mode_still_parse() {
        // The example DESIGN.md documented for schema v1.
        let design_md = r#"{"type":"campaign_spec","schema_version":1,"id":"fft-spm",
 "workload":{"kind":"dsa","design":"FFT","component":"REAL","fus":4},
 "target":"prf","faults":1000,"fault_kind":"transient","seed":7,
 "workers":0,"reset_mode":"dirty","ladder_rungs":8,
 "convergence_exit":false,"hvf":false,"taint":false,"fast_prep":false}"#;
        let dirty = CampaignSpec::parse(design_md).unwrap();
        assert_eq!(dirty.n_faults, 1000);
        // reset_mode is an oracle selector: accepted in v1 and ignored.
        let clone = CampaignSpec::parse(&design_md.replace("\"dirty\"", "\"clone\"")).unwrap();
        assert_eq!(clone, dirty);
        assert_eq!(clone.to_config(TelemetryConfig::default()).reset_mode, ResetMode::Dirty);
        let bogus = CampaignSpec::parse(&design_md.replace("\"dirty\"", "\"bogus\"")).unwrap_err();
        assert!(bogus.contains("reset_mode"), "{bogus}");
        // v2 has no such key.
        let v2 = design_md.replace("\"schema_version\":1", "\"schema_version\":2");
        let err = CampaignSpec::parse(&v2).unwrap_err();
        assert!(err.contains("unknown spec key \"reset_mode\""), "{err}");
    }

    #[test]
    fn rejects_unknown_and_repeated_keys() {
        let with = |extra: &str| {
            CampaignSpec::parse(&format!(
                r#"{{"type":"campaign_spec","schema_version":2,"id":"x",{extra}}}"#
            ))
        };
        let dsa = r#""workload":{"kind":"dsa","design":"FFT"}"#;
        let cpu = r#""workload":{"kind":"cpu","bench":"crc32"}"#;
        for (extra, key) in [
            (format!(r#"{dsa},"lane_width":0"#), "\"lane_width\""),
            (format!(r#"{dsa},"dsa_engine":"cycle""#), "\"dsa_engine\""),
            (format!(r#"{cpu},"Faults":3"#), "\"Faults\""),
            (r#""workload":{"kind":"dsa","design":"FFT","lanes":2}"#.to_string(), "\"lanes\""),
            (r#""workload":{"kind":"cpu","bench":"crc32","fus":2}"#.to_string(), "\"fus\""),
        ] {
            let err = with(&extra).unwrap_err();
            assert!(err.contains("unknown") && err.contains(key), "{extra}: {err}");
        }
        let err = with(&format!(r#"{dsa},"faults":3,"faults":4"#)).unwrap_err();
        assert!(err.contains("repeated spec key \"faults\""), "{err}");
    }

    #[test]
    fn rejects_present_keys_of_the_wrong_type() {
        let with = |extra: &str| {
            CampaignSpec::parse(&format!(
                r#"{{"type":"campaign_spec","schema_version":2,"id":"x",{extra}}}"#
            ))
        };
        let dsa = r#""workload":{"kind":"dsa","design":"FFT"}"#;
        for (extra, key) in [
            (format!(r#"{dsa},"faults":"abc""#), "\"faults\""),
            (format!(r#"{dsa},"faults":-3"#), "\"faults\""),
            (format!(r#"{dsa},"faults":2.5"#), "\"faults\""),
            (format!(r#"{dsa},"seed":"7""#), "\"seed\""),
            (format!(r#"{dsa},"workers":null"#), "\"workers\""),
            (format!(r#"{dsa},"ladder_rungs":true"#), "\"ladder_rungs\""),
            (format!(r#"{dsa},"hvf":"yes""#), "\"hvf\""),
            (format!(r#"{dsa},"taint":1"#), "\"taint\""),
            (format!(r#"{dsa},"convergence_exit":"false""#), "\"convergence_exit\""),
            (format!(r#"{dsa},"fast_prep":[]"#), "\"fast_prep\""),
            (format!(r#"{dsa},"target":7"#), "\"target\""),
            (format!(r#"{dsa},"fault_kind":{{}}"#), "\"fault_kind\""),
            (r#""workload":{"kind":"dsa","design":"FFT","fus":"4"}"#.to_string(), "\"fus\""),
            (r#""workload":{"kind":"dsa","design":"FFT","component":3}"#.to_string(), "\"component\""),
            (r#""workload":{"kind":"cpu","bench":"crc32","isa":3}"#.to_string(), "\"isa\""),
            (r#""workload":{"kind":"cpu","bench":false}"#.to_string(), "\"bench\""),
        ] {
            let err = with(&extra).unwrap_err();
            assert!(err.contains("must be") && err.contains(key), "{extra}: {err}");
        }
        let id = r#"{"type":"campaign_spec","schema_version":2,"id":7,"workload":{"kind":"cpu","bench":"crc32"}}"#;
        let err = CampaignSpec::parse(id).unwrap_err();
        assert!(err.contains("spec key \"id\" must be a string"), "{err}");
        let err = with(r#""workload":[1]"#).unwrap_err();
        assert!(err.contains("workload must be a JSON object"), "{err}");
        let err = CampaignSpec::parse("[1,2]").unwrap_err();
        assert!(err.contains("spec must be a JSON object"), "{err}");
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

    #[test]
    fn isa_and_target_names_accept_aliases_in_any_case() {
        for name in ["riscv", "RISC-V", "rv", "RiscV"] {
            assert_eq!(parse_isa(name), Ok(Isa::RiscV), "{name}");
        }
        assert_eq!(parse_isa("ARM"), Ok(Isa::Arm));
        assert!(parse_isa("mips").unwrap_err().contains("mips"));
        assert_eq!(parse_cpu_target("L1D"), Ok(Target::L1D));
        assert_eq!(parse_cpu_target("rf"), Ok(Target::PrfInt));
        assert!(parse_cpu_target("prf-int").unwrap_err().contains("prf-int"));
    }

    #[test]
    fn to_config_carries_taint() {
        let mut spec = CampaignSpec::parse(dsa_spec_text()).unwrap();
        assert!(!spec.to_config(TelemetryConfig::default()).telemetry.taint);
        spec.taint = true;
        assert!(spec.to_config(TelemetryConfig::default()).telemetry.taint);
    }

    #[test]
    fn dsa_prep_publishes_golden_counters() {
        let spec = CampaignSpec::parse(dsa_spec_text()).unwrap();
        let registry = Registry::new();
        let cc =
            spec.to_config(TelemetryConfig { registry: registry.clone(), ..TelemetryConfig::default() });
        let prepared = Prepared::new(&spec, &cc).unwrap();
        let counters = registry.snapshot().counters;
        let cycles = counters.iter().find(|(n, _)| n == "dsa.golden_accel.cycles");
        assert!(cycles.is_some_and(|&(_, v)| v > 0), "{counters:?}");
        // FFT's IMG scratchpad: the harness's own bit count.
        assert_eq!(prepared.bit_population, 8_192 * 8);
    }

    #[test]
    fn dsa_prep_attributes_schedule_build() {
        let spec = CampaignSpec::parse(dsa_spec_text()).unwrap();
        let spans = SpanCollector::enabled();
        let cc = spec.to_config(TelemetryConfig { spans: spans.clone(), ..TelemetryConfig::default() });
        let prepared = Prepared::new(&spec, &cc).unwrap();
        assert_eq!(prepared.masks.len(), 8);
        let report = spans.report();
        assert_eq!(report.calls(PhaseId::GoldenPrep), 1);
        assert_eq!(report.calls(PhaseId::ScheduleBuild), 1);
    }
}
