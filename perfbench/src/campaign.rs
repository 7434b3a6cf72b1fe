//! One campaign, driven through the public calls a user's campaign goes
//! through and timed from outside: spec → config → compile → golden prep
//! → ladder → masks → drive. The sequence mirrors `marvel_serve::Prepared`
//! (the `marvel campaign` / `marvel serve` path), split so each call
//! gets its own timer.

use crate::spans::SpanLog;
use marvel_accel::FuConfig;
use marvel_core::{
    build_campaign_ladder, build_dsa_ladder, campaign_masks, drive_dsa_masks, drive_masks,
    dsa_campaign_masks, run_dsa_masks, run_masks, CampaignConfig, DsaEngine, DsaGolden, DsaLadder,
    FaultMask, Golden, Ladder, RunRecord, Target, TelemetryConfig,
};
use marvel_cpu::CoreConfig;
use marvel_serve::{CampaignSpec, Workload};
use marvel_soc::{RunOutcome, System};
use marvel_workloads::{accel, mibench};
use std::sync::Mutex;
use std::time::Instant;

/// Golden-run budgets, as in `marvel_serve::Prepared`.
const CPU_GOLDEN_BUDGET: u64 = 200_000_000;
const DSA_GOLDEN_BUDGET: u64 = 100_000_000;

/// Host seconds of each setup call, plus the whole spec-to-first-drive
/// interval they make up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// `mibench::build` + `assemble`, or building a DSA design's harness
    /// (its CDFG, inputs and DMA plan).
    pub compile_s: f64,
    /// System construction + `Golden::prepare`, or
    /// `DsaGolden::prepare_spanned`.
    pub golden_s: f64,
    /// `build_campaign_ladder` / `build_dsa_ladder`.
    pub ladder_s: f64,
    /// `campaign_masks` / `dsa_campaign_masks`.
    pub masks_s: f64,
    /// Spec text to first drive; the four parts above plus spec parsing.
    pub setup_s: f64,
}

enum Prepped {
    /// `population` (fault sites: bits × cycles) feeds the drive's
    /// progress margin, as in `marvel_serve::Prepared`.
    Cpu {
        golden: Box<Golden>,
        ladder: Option<Ladder>,
        population: u64,
    },
    Dsa {
        golden: Box<DsaGolden>,
        ladder: DsaLadder,
    },
}

/// A prepared campaign, ready to drive.
pub struct Campaign {
    pub cc: CampaignConfig,
    pub target: Target,
    pub masks: Vec<FaultMask>,
    /// Fault-free cycles from checkpoint (CPU) or start (DSA) to the end.
    pub golden_cycles: u64,
    pub setup: SetupTimes,
    prepped: Prepped,
}

/// The oracle configuration the differential suites compare against:
/// scalar lanes, no ladder, no convergence exit, cycle-stepped DSA.
fn oracle_config(cc: &CampaignConfig) -> CampaignConfig {
    CampaignConfig {
        lane_width: 0,
        ladder_rungs: 0,
        convergence_exit: false,
        dsa_engine: DsaEngine::Cycle,
        telemetry: TelemetryConfig::default(),
        ..cc.clone()
    }
}

impl Campaign {
    /// Parse `spec_text` and run every setup call, each under its own
    /// benchmark span tagged with campaign `id`.
    pub fn prepare(
        spec_text: &str,
        telemetry: TelemetryConfig,
        log: &mut SpanLog,
        id: usize,
    ) -> Result<Campaign, String> {
        let setup = log.enter("setup", Some(id));
        let spec = CampaignSpec::parse(spec_text)?;
        let cc = spec.to_config(telemetry);
        let mut t = SetupTimes::default();
        let (target, golden_cycles, masks, prepped) = match &spec.workload {
            Workload::Cpu { bench, isa } => {
                let s = log.enter("compile", Some(id));
                let bin = marvel_ir::assemble(&mibench::build(bench), *isa).map_err(|e| e.to_string());
                t.compile_s = log.exit(s);
                let bin = bin?;
                let s = log.enter("golden", Some(id));
                let mut sys = System::new(CoreConfig::table2(*isa));
                sys.load_binary(&bin);
                let golden = Golden::prepare(sys, CPU_GOLDEN_BUDGET).map_err(|e| e.to_string());
                t.golden_s = log.exit(s);
                let golden = golden?;
                let s = log.enter("ladder", Some(id));
                let ladder = build_campaign_ladder(&golden, &cc);
                t.ladder_s = log.exit(s);
                let s = log.enter("masks", Some(id));
                let masks = campaign_masks(&golden, spec.cpu_target, &cc);
                t.masks_s = log.exit(s);
                let population =
                    golden.ckpt.bit_len(spec.cpu_target).saturating_mul(golden.exec_cycles.max(1));
                let cycles = golden.exec_cycles;
                let prepped = Prepped::Cpu { golden: Box::new(golden), ladder, population };
                (spec.cpu_target, cycles, masks, prepped)
            }
            Workload::Dsa { design, component, fus } => {
                let d = accel::designs()
                    .into_iter()
                    .find(|d| d.name == *design)
                    .ok_or_else(|| format!("unknown design '{design}'"))?;
                let target = d
                    .components
                    .iter()
                    .find(|c| c.name == *component)
                    .ok_or_else(|| format!("design {design} has no component '{component}'"))?
                    .target;
                let s = log.enter("compile", Some(id));
                let harness = (d.make)(FuConfig::uniform(*fus));
                t.compile_s = log.exit(s);
                let s = log.enter("golden", Some(id));
                let golden = DsaGolden::prepare_spanned(harness, DSA_GOLDEN_BUDGET, &cc.telemetry.spans);
                t.golden_s = log.exit(s);
                let s = log.enter("ladder", Some(id));
                let ladder = build_dsa_ladder(&golden, &cc);
                t.ladder_s = log.exit(s);
                let s = log.enter("masks", Some(id));
                let masks = dsa_campaign_masks(&golden, target, &cc);
                t.masks_s = log.exit(s);
                let cycles = golden.cycles;
                (target, cycles, masks, Prepped::Dsa { golden: Box::new(golden), ladder })
            }
        };
        t.setup_s = log.exit(setup);
        Ok(Campaign { cc, target, masks, golden_cycles, setup: t, prepped })
    }

    /// Drive every mask through the campaign's worker pool. Returns one
    /// slot per mask (`None` if drive handed back no record for it) and
    /// the host seconds spent inside the drive call.
    pub fn drive(&self, log: &mut SpanLog, id: usize) -> (Vec<Option<RunRecord>>, f64) {
        let slots: Vec<Mutex<Option<RunRecord>>> = self.masks.iter().map(|_| Mutex::new(None)).collect();
        let sink = |i: usize, rec: RunRecord| {
            *slots[i].lock().expect("a sink call panicked while holding its slot") = Some(rec);
        };
        let skip = vec![false; self.masks.len()];
        let s = log.enter("drive", Some(id));
        match &self.prepped {
            Prepped::Cpu { golden, ladder, population } => {
                drive_masks(
                    golden,
                    ladder.as_ref(),
                    &self.masks,
                    &self.cc,
                    *population,
                    &skip,
                    None,
                    &sink,
                );
            }
            Prepped::Dsa { golden, ladder } => {
                let ladder = (!ladder.is_empty()).then_some(ladder);
                drive_dsa_masks(golden, self.target, ladder, &self.masks, &self.cc, &skip, None, &sink);
            }
        }
        let secs = log.exit(s);
        let records =
            slots.into_iter().map(|s| s.into_inner().expect("sink slots are not poisoned")).collect();
        (records, secs)
    }

    /// Records of the masks at `idx` under the oracle configuration, in
    /// `idx` order, through `run_masks` / `run_dsa_masks`.
    pub fn oracle_records(&self, idx: &[usize]) -> Vec<RunRecord> {
        if idx.is_empty() {
            return Vec::new();
        }
        let masks: Vec<FaultMask> = idx.iter().map(|&i| self.masks[i].clone()).collect();
        let oc = oracle_config(&self.cc);
        match &self.prepped {
            Prepped::Cpu { golden, .. } => run_masks(golden, &masks, &oc),
            Prepped::Dsa { golden, .. } => run_dsa_masks(golden, self.target, &masks, &oc).records,
        }
    }

    /// Time a fault-free `System::run` from a clone of the checkpoint to
    /// halt: simulated cycles and host seconds. `None` for DSA campaigns.
    pub fn fault_free_run(&self) -> Option<(u64, f64)> {
        let Prepped::Cpu { golden, .. } = &self.prepped else { return None };
        let mut sys = golden.ckpt.clone();
        let t0 = Instant::now();
        let out = sys.run(CPU_GOLDEN_BUDGET);
        let secs = t0.elapsed().as_secs_f64();
        match out {
            RunOutcome::Halted { cycles } => Some((cycles - golden.ckpt_cycle, secs)),
            other => panic!("fault-free rerun of a prepared golden did not halt: {other:?}"),
        }
    }

    /// Worker threads the drive call can keep busy.
    pub fn workers_used(&self) -> usize {
        let w = if self.cc.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cc.workers
        };
        w.min(self.masks.len().max(1))
    }
}
