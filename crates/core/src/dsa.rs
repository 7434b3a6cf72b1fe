//! Standalone DSA fault-injection harness: DMA-in → compute → DMA-out with
//! cycle-accurate injection timing, used for the paper's Table IV /
//! Fig. 14 / Fig. 17 accelerator campaigns.
//!
//! For SPM/RegBank targets, HVF and AVF are identical (Section IV-D): any
//! non-masked fault is architecturally visible, so only the AVF classes
//! are reported.

use crate::campaign::{
    acquire, claim_order, collect_records, drive_pool, effect_tag, taint_finish, CampaignConfig,
    CampaignResult, DriveOutcome, DsaEngine, FaultEffect, ResetMode, RunRecord, WorkerCtx,
    WATCHDOG_FACTOR,
};
use crate::fault::{FaultMask, FaultModel, MaskGenerator};
use crate::ladder::{build_timed, record_prefix, select_base, Ladder, RunState, Rung};
use marvel_accel::{AccelState, Accelerator, DmaEngine, DmaJob, SramFate};
use marvel_soc::Target;
use marvel_telemetry::{Event, FlightRecorder, PhaseId, Registry, Scope, SpanCollector, SpanLane};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A self-contained accelerator experiment: the accelerator, a private RAM
/// buffer, DMA plans and entry arguments — plus the state of the run in
/// flight (DMA engine, phase, cycle, RAM taint shadow), so a harness
/// cloned mid-run is a checkpoint-ladder rung, as a cloned [`System`] is
/// on the CPU side.
///
/// [`System`]: marvel_soc::System
#[derive(Debug, Clone)]
pub struct DsaHarness {
    pub accel: Accelerator,
    pub ram: Vec<u8>,
    pub jobs_in: Vec<DmaJob>,
    pub jobs_out: Vec<DmaJob>,
    pub args: Vec<u64>,
    /// Byte range of `ram` holding the result after DMA-out.
    pub output: std::ops::Range<usize>,
    dma: DmaEngine,
    phase: Phase,
    /// Cycles since the run started.
    cycle: u64,
    /// RAM taint shadow (marvel-taint): allocated only when the
    /// accelerator's shadow planes are on, so plain runs pay nothing.
    ram_shadow: Vec<u8>,
}

/// Where a harness run stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The start handshake has not run yet.
    Idle,
    DmaIn,
    Compute,
    DmaOut,
}

/// Outcome of one harness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsaOutcome {
    Done {
        output: Vec<u8>,
        cycles: u64,
    },
    /// Datapath error (out-of-bounds access) or DMA failure.
    Error {
        cycles: u64,
    },
    Timeout,
}

/// How a run of the DSA run loop ended.
enum DsaRunEnd {
    /// Ran to a terminal outcome (done / error / timeout).
    Finished(DsaOutcome),
    /// The fate poll saw the armed bit overwritten before any read — the
    /// fault is architecturally dead, the run is definitively Masked.
    MaskedEarly { cycles: u64 },
    /// Post-injection state matched the golden rung frozen at the same
    /// cycle — the rest of the run is bit-identical to the fault-free
    /// one, so the record is Masked with the golden cycle count.
    Converged,
}

impl DsaHarness {
    /// A harness that has not started its run: `accel` computes over
    /// `ram` after the `jobs_in` DMA plan, is started with entry
    /// arguments `args`, and leaves its result in `ram[output]` through
    /// `jobs_out`.
    pub fn new(
        accel: Accelerator,
        ram: Vec<u8>,
        jobs_in: Vec<DmaJob>,
        jobs_out: Vec<DmaJob>,
        args: Vec<u64>,
        output: std::ops::Range<usize>,
    ) -> DsaHarness {
        DsaHarness {
            accel,
            ram,
            jobs_in,
            jobs_out,
            args,
            output,
            dma: DmaEngine::new(8),
            phase: Phase::Idle,
            cycle: 0,
            ram_shadow: Vec::new(),
        }
    }

    /// Apply a fault mask to this harness's accelerator.
    fn apply(&mut self, mask: &FaultMask, permanent_value: Option<bool>) {
        for &bit in &mask.bits {
            match (mask.target, permanent_value) {
                (Target::Spm { mem, .. }, None) => {
                    self.accel.spms[mem].flip_bit(bit);
                }
                (Target::Spm { mem, .. }, Some(v)) => self.accel.spms[mem].set_stuck(bit, v),
                (Target::RegBank { mem, .. }, None) => {
                    self.accel.regbanks[mem].flip_bit(bit);
                }
                (Target::RegBank { mem, .. }, Some(v)) => self.accel.regbanks[mem].set_stuck(bit, v),
                (Target::Mmr { .. }, None) => {
                    self.accel.mmr.flip_bit(bit);
                }
                (Target::Mmr { .. }, Some(v)) => self.accel.mmr.set_stuck(bit, v),
                _ => panic!("{:?} is not a DSA target", mask.target),
            }
        }
    }

    /// Injectable bits of `target`.
    pub fn bit_len(&self, target: Target) -> u64 {
        match target {
            Target::Spm { mem, .. } => self.accel.spms[mem].bit_len(),
            Target::RegBank { mem, .. } => self.accel.regbanks[mem].bit_len(),
            Target::Mmr { .. } => self.accel.mmr.bit_len(),
            _ => panic!("{target:?} is not a DSA target"),
        }
    }

    /// Fate of the armed (injected) bit for `target`, if any.
    pub fn fault_fate(&self, target: Target) -> Option<SramFate> {
        match target {
            Target::Spm { mem, .. } => self.accel.spms[mem].fate(),
            Target::RegBank { mem, .. } => self.accel.regbanks[mem].fate(),
            Target::Mmr { .. } => self.accel.mmr.fate(),
            _ => None,
        }
    }

    /// Restore this harness, run state included, to the pristine copy it
    /// was cloned from (zero-copy campaign reset). The accelerator resets
    /// through its SPM write watermarks; the private RAM buffer (32–256
    /// KiB on the Table IV designs) and, when the base has one, its taint
    /// shadow are copied wholesale. Returns state bytes copied.
    pub fn reset_from(&mut self, pristine: &DsaHarness) -> u64 {
        let mut bytes = self.accel.reset_from(&pristine.accel);
        self.ram.clone_from(&pristine.ram);
        self.ram_shadow.clone_from(&pristine.ram_shadow);
        bytes += (self.ram.len() + self.ram_shadow.len()) as u64;
        bytes += self.dma.reset_from(&pristine.dma);
        self.phase = pristine.phase;
        self.cycle = pristine.cycle;
        self.jobs_in.clone_from(&pristine.jobs_in);
        self.jobs_out.clone_from(&pristine.jobs_out);
        self.args.clone_from(&pristine.args);
        self.output = pristine.output.clone();
        bytes + 16
    }

    /// Run the full DMA-in → compute → DMA-out sequence, optionally
    /// injecting `mask`: a transient at its cycle, a permanent right
    /// after the start handshake.
    pub fn run(&mut self, mask: Option<&FaultMask>, watchdog: u64) -> DsaOutcome {
        let fr = &mut FlightRecorder::disabled();
        match self.drive(mask, watchdog, None, fr, &mut SpanLane::disabled()) {
            DsaRunEnd::Finished(o) => o,
            DsaRunEnd::MaskedEarly { .. } | DsaRunEnd::Converged => {
                unreachable!("only campaign runs take the early exits")
            }
        }
    }

    /// The start handshake, once per run: queue the DMA-in plan and start
    /// the accelerator. Also gives the RAM a zeroed taint shadow when the
    /// accelerator's shadow planes are on (the fault-free prefix carries
    /// no taint, so a shadow added at a rung matches one from cycle 0).
    fn begin(&mut self) {
        if self.phase == Phase::Idle {
            for j in &self.jobs_in {
                self.dma.push(*j);
            }
            self.accel.start(&self.args);
            self.phase = Phase::DmaIn;
        }
        if self.accel.taint_enabled() && self.ram_shadow.is_empty() {
            self.ram_shadow.resize(self.ram.len(), 0);
        }
    }

    /// The DSA run loop, behind [`DsaHarness::run`] and every campaign
    /// run: start the run unless it has started (a ladder rung has), arm
    /// `mask` — a permanent right after the start handshake, a transient
    /// at the top of its cycle — and step to an end. `campaign` carries
    /// the config and the ladder rungs above the run's base, enabling the
    /// campaign exits: the fate poll and the convergence exit at rung
    /// crossings. Without it the run goes to a terminal outcome.
    fn drive(
        &mut self,
        mask: Option<&FaultMask>,
        watchdog: u64,
        campaign: Option<(&CampaignConfig, &[Rung<DsaHarness>])>,
        fr: &mut FlightRecorder,
        lane: &mut SpanLane,
    ) -> DsaRunEnd {
        self.begin();
        let inject_at = mask.and_then(|m| match m.model {
            FaultModel::Transient { cycle } => Some(cycle),
            FaultModel::Permanent { .. } => None,
        });
        let armed_event = |m: &FaultMask, model| Event::FaultArmed {
            target: m.target.name(),
            bit: m.bits.first().copied().unwrap_or(0),
            model,
        };
        if let Some(m) = mask {
            if let FaultModel::Permanent { value } = m.model {
                lane.enter(PhaseId::Inject);
                self.apply(m, Some(value));
                lane.exit(PhaseId::Inject);
                fr.record(self.cycle, armed_event(m, "permanent"));
            }
        }
        let (cc, mut ahead) = campaign.map_or((None, &[][..]), |(cc, ahead)| (Some(cc), ahead));
        let transient = inject_at.is_some();
        let early = transient && cc.is_some_and(|c| c.early_termination);
        let converge = transient && cc.is_some_and(|c| c.convergence_exit);
        let taint = cc.is_some_and(|c| c.telemetry.taint);
        let overwritten =
            |h: &DsaHarness| mask.is_some_and(|m| h.fault_fate(m.target) == Some(SramFate::Overwritten));
        let mut armed = !transient;
        lane.enter(PhaseId::SimStepDsa);
        let event = self.accel.event_engine();
        if event {
            // Sub-attribute event-driven stepping (schedule jumps + golden
            // replay) under the sim-step lane so the span report separates
            // the two drive paths.
            lane.enter(PhaseId::TraceReplay);
        }
        let end = loop {
            // Bulk-advance to the next special cycle (injection, ladder rung,
            // fate poll, watchdog); each special cycle then goes through the
            // single-cycle path so check ordering matches the historical
            // per-cycle loop exactly.
            let mut stop = watchdog;
            if !armed {
                if let Some(c) = inject_at {
                    stop = stop.min(c.saturating_sub(1));
                }
            }
            if let Some(r) = ahead.first() {
                stop = stop.min(r.cycle.saturating_sub(1));
            }
            if early && armed {
                stop = stop.min((self.cycle / 1024 + 1) * 1024 - 1);
            }
            if stop > self.cycle {
                if let Some(o) = self.advance(stop, fr) {
                    break DsaRunEnd::Finished(o);
                }
            }
            if self.cycle + 1 > watchdog {
                self.cycle += 1;
                fr.record(self.cycle, Event::Trap { tag: "watchdog" });
                break DsaRunEnd::Finished(DsaOutcome::Timeout);
            }
            if !armed && inject_at == Some(self.cycle + 1) {
                let m = mask.expect("a transient injection has a mask");
                lane.enter(PhaseId::Inject);
                self.apply(m, None);
                lane.exit(PhaseId::Inject);
                armed = true;
                fr.record(self.cycle + 1, armed_event(m, "transient"));
            }
            let one = self.cycle + 1;
            if let Some(o) = self.advance(one, fr) {
                break DsaRunEnd::Finished(o);
            }
            // Ladder-rung crossing: dirty-diff convergence exit. The harness
            // keeps no dirty journals, so the "diff" is a wholesale
            // functional compare.
            if let Some(rung) = ahead.first().filter(|r| r.cycle == self.cycle) {
                ahead = &ahead[1..];
                if converge && armed {
                    // Fate split: if the early-termination poll would also
                    // catch this run (bit overwritten before any read),
                    // defer to it — the poll fires at the same absolute
                    // cycles with or without the ladder, keeping records
                    // bit-identical across configurations.
                    let skip = early && overwritten(self);
                    lane.enter(PhaseId::ConvergenceDiff);
                    let converged =
                        !skip && (!taint || self.taint_quiescent()) && self.state_eq(&rung.state);
                    lane.exit(PhaseId::ConvergenceDiff);
                    if converged {
                        fr.record(self.cycle, Event::Converged);
                        break DsaRunEnd::Converged;
                    }
                }
            }
            // Early termination: poll the armed bit's fate on a coarse,
            // absolute-cycle cadence (deterministic across reset modes,
            // worker counts and ladder bases). Overwritten-before-read is
            // definitively Masked.
            if early && armed && self.cycle.is_multiple_of(1024) && overwritten(self) {
                fr.record(self.cycle, Event::EarlyTerminated);
                break DsaRunEnd::MaskedEarly { cycles: self.cycle };
            }
        };
        if event {
            lane.exit(PhaseId::TraceReplay);
        }
        lane.exit(PhaseId::SimStepDsa);
        end
    }

    /// Advance the run one cycle (the phase action for `self.cycle`, which
    /// the caller has already incremented); returns the outcome once the
    /// run finishes.
    fn step(&mut self, fr: &mut FlightRecorder) -> Option<DsaOutcome> {
        match self.phase {
            Phase::Idle => unreachable!("a run steps only after its start handshake"),
            Phase::DmaIn | Phase::DmaOut if self.dma.busy() => {
                let shadow = (!self.ram_shadow.is_empty()).then_some(&mut self.ram_shadow[..]);
                if !self.dma.tick_tainted(&mut self.ram, shadow, &mut self.accel) {
                    fr.record(self.cycle, Event::Trap { tag: "dma-error" });
                    return Some(DsaOutcome::Error { cycles: self.cycle });
                }
                None
            }
            Phase::DmaIn => {
                fr.record(
                    self.cycle,
                    Event::Note { label: "dma_in_bytes", value: self.dma.bytes_moved },
                );
                self.phase = Phase::Compute;
                None
            }
            Phase::Compute => {
                let state = self.accel.tick();
                self.computed(state, fr)
            }
            Phase::DmaOut => Some(DsaOutcome::Done {
                output: self.ram[self.output.clone()].to_vec(),
                cycles: self.cycle,
            }),
        }
    }

    /// Act on the accelerator's state after compute progressed: queue the
    /// DMA-out plan once it is done, end the run on a datapath error.
    fn computed(&mut self, state: AccelState, fr: &mut FlightRecorder) -> Option<DsaOutcome> {
        match state {
            AccelState::Done => {
                fr.record(
                    self.cycle,
                    Event::Note { label: "compute_cycles", value: self.accel.stats.compute_cycles },
                );
                for j in &self.jobs_out {
                    self.dma.push(*j);
                }
                self.phase = Phase::DmaOut;
                None
            }
            AccelState::Error(_) => {
                fr.record(self.cycle, Event::Trap { tag: "accel-error" });
                Some(DsaOutcome::Error { cycles: self.cycle })
            }
            _ => None,
        }
    }

    /// Advance the run up to absolute cycle `limit` (or a terminal
    /// outcome, whichever comes first). Semantically identical to calling
    /// [`step`](Self::step) once per cycle; when the accelerator is on the
    /// event engine, the compute phase instead jumps between schedule
    /// events via [`Accelerator::advance`], bulk-charging the skipped
    /// cycles. DMA phases move bytes every cycle and stay cycle-stepped
    /// either way.
    fn advance(&mut self, limit: u64, fr: &mut FlightRecorder) -> Option<DsaOutcome> {
        let event = self.accel.event_engine();
        while self.cycle < limit {
            let end = if event && self.phase == Phase::Compute {
                let (state, used) = self.accel.advance(limit - self.cycle);
                self.cycle += used;
                self.computed(state, fr)
            } else {
                self.cycle += 1;
                self.step(fr)
            };
            if end.is_some() {
                return end;
            }
        }
        None
    }

    /// True when no taint is latched in the accelerator or the RAM shadow.
    fn taint_quiescent(&self) -> bool {
        self.accel.taint_quiescent() && self.ram_shadow.iter().all(|&b| b == 0)
    }

    /// Functional-state equality against a golden rung at the same cycle,
    /// for the convergence exit.
    fn state_eq(&self, golden: &DsaHarness) -> bool {
        self.phase == golden.phase
            && self.dma.state_eq(&golden.dma)
            && self.ram == golden.ram
            && self.accel.state_eq(&golden.accel)
    }
}

impl RunState for DsaHarness {
    const SCOPE: &'static str = "dsa";
    const RESET_NS: &'static str = "dsa.reset_ns";
    const RESET_BYTES: &'static str = "dsa.reset_bytes";
    const PREFIX_CYCLES: &'static str = "dsa.prefix_cycles";
    const PREFIX_SKIPPED: &'static str = "dsa.prefix_cycles_skipped";
    const RUNG_AT_INJECTION: bool = false;
    type Marks = ();
    fn reset_from(&mut self, pristine: &DsaHarness) -> u64 {
        DsaHarness::reset_from(self, pristine)
    }
    fn advance_to(&mut self, cycle: u64) -> bool {
        self.begin();
        self.advance(cycle, &mut FlightRecorder::disabled()).is_none()
    }
    fn take_marks(&mut self) {}
}

/// Checkpoint ladder for DSA campaigns: harness snapshots of the
/// fault-free run. A rung is frozen right after the step for its cycle,
/// so a run injecting at cycle `c` starts from the deepest rung strictly
/// below `c`.
pub type DsaLadder = Ladder<DsaHarness>;

/// Golden reference for a DSA campaign.
#[derive(Debug, Clone)]
pub struct DsaGolden {
    pub harness: DsaHarness,
    pub output: Vec<u8>,
    pub cycles: u64,
    /// The accelerator's structure counters (SPM/RegBank traffic,
    /// node/block execution) after the fault-free cycle-oracle run, as
    /// `dsa.golden_accel.*` metrics.
    accel_counters: Vec<(String, u64)>,
}

impl DsaGolden {
    /// Execute the fault-free run, then arm the event engine: build the
    /// static CDFG schedule, record the golden node-firing trace with an
    /// event-engine run (self-checked bit-for-bit against the cycle
    /// oracle), and install both on the stored pristine harness. The
    /// harness itself stays on the cycle engine — campaign drivers opt
    /// runs into the event engine per [`CampaignConfig::dsa_engine`].
    /// Designs the schedule builder rejects simply stay cycle-only.
    ///
    /// # Panics
    /// Panics if the fault-free run errors or times out (a design bug),
    /// or if the event engine disagrees with the cycle oracle.
    pub fn prepare(harness: DsaHarness, watchdog: u64) -> DsaGolden {
        Self::prepare_spanned(harness, watchdog, &SpanCollector::disabled())
    }

    /// [`prepare`](Self::prepare) with phase spans: the cycle-oracle run
    /// lands in [`PhaseId::GoldenPrep`], the schedule build plus trace
    /// recording in [`PhaseId::ScheduleBuild`].
    pub fn prepare_spanned(mut harness: DsaHarness, watchdog: u64, spans: &SpanCollector) -> DsaGolden {
        let (output, cycles, accel_counters) = spans.time(PhaseId::GoldenPrep, || {
            let mut h = harness.clone();
            match h.run(None, watchdog) {
                DsaOutcome::Done { output, cycles } => {
                    let counters = Registry::new();
                    h.accel.publish_metrics(&counters, &Scope::new("dsa").child("golden_accel"));
                    (output, cycles, counters.snapshot().counters)
                }
                o => panic!("fault-free DSA run failed: {o:?}"),
            }
        });
        spans.time(PhaseId::ScheduleBuild, || {
            if harness.accel.prepare_event_engine() {
                let mut h = harness.clone();
                h.accel.set_engine_event();
                h.accel.begin_trace_recording();
                match h.run(None, watchdog) {
                    DsaOutcome::Done { output: o2, cycles: c2 } => {
                        assert!(
                            o2 == output && c2 == cycles,
                            "event engine diverged from the cycle oracle on the golden run \
                             (cycles {c2} vs {cycles})"
                        );
                        let trace = h.accel.take_trace().expect("trace recording was armed");
                        harness.accel.arm_replay(Arc::new(trace));
                    }
                    o => panic!("event-engine golden run failed: {o:?}"),
                }
            }
        });
        DsaGolden { harness, output, cycles, accel_counters }
    }

    /// Cycle at which an injection run is declared hung: three golden
    /// run lengths plus slack.
    pub fn watchdog(&self) -> u64 {
        self.cycles * WATCHDOG_FACTOR + 10_000
    }

    /// Export the accelerator's structure counters from the fault-free run
    /// under `dsa.golden_accel.*`.
    pub fn publish_metrics(&self, reg: &Registry) {
        for (name, value) in &self.accel_counters {
            reg.publish(name, *value);
        }
    }

    /// Replay the fault-free run once more, freezing `n_rungs` evenly
    /// spaced harness snapshots strictly inside the injection window.
    /// Built once per campaign and shared read-only across workers.
    pub fn build_ladder(&self, n_rungs: usize) -> DsaLadder {
        self.build_ladder_engine(n_rungs, false)
    }

    /// [`build_ladder`](Self::build_ladder), optionally replayed on the
    /// event engine. Rungs must be frozen by the same engine that later
    /// drives runs from them: the engines agree on architectural state at
    /// every cycle, but the event engine retires lazily, so mid-block
    /// bookkeeping (and the replay cursors) only line up engine-to-engine.
    /// The event ladder also enables the taint shadow planes, which event
    /// runs need for replay memoization.
    pub fn build_ladder_engine(&self, n_rungs: usize, event: bool) -> DsaLadder {
        Ladder::build(n_rungs, 0, self.cycles, || {
            let mut h = self.harness.clone();
            if event && h.accel.set_engine_event() {
                h.accel.enable_taint("ladder");
            }
            h
        })
    }
}

/// Run a statistical campaign on one DSA memory target. AVF == HVF for
/// these targets, so the result's records carry no HVF class.
pub fn run_dsa_campaign(golden: &DsaGolden, target: Target, cc: &CampaignConfig) -> CampaignResult {
    let masks = dsa_campaign_masks(golden, target, cc);
    run_dsa_masks(golden, target, &masks, cc)
}

/// The deterministic mask population a DSA campaign injects: a pure
/// function of the golden run, the target and the config seed, so
/// resumable drivers (journaled CLI runs, the campaign service) can
/// regenerate the exact mask list a crashed campaign was executing.
pub fn dsa_campaign_masks(golden: &DsaGolden, target: Target, cc: &CampaignConfig) -> Vec<FaultMask> {
    let bit_len = golden.harness.bit_len(target);
    let mut gen = MaskGenerator::new(cc.seed ^ 0xD5A);
    gen.single_bit(target, bit_len, cc.kind, 1..golden.cycles.max(2), cc.n_faults)
}

/// Build the DSA checkpoint ladder per `cc.ladder_rungs` and publish its
/// build metrics; empty when the ladder is disabled. Split out (like
/// [`crate::campaign::build_campaign_ladder`]) so long-lived drivers can
/// build once and reuse across many incremental [`drive_dsa_masks`] calls.
pub fn build_dsa_ladder(golden: &DsaGolden, cc: &CampaignConfig) -> DsaLadder {
    // Rungs must be frozen by the engine that will drive runs from them —
    // see `build_ladder_engine`.
    let event = dsa_event_engine(golden, cc);
    build_timed(cc, |n| golden.build_ladder_engine(n, event)).unwrap_or_default()
}

/// Run one injection per caller-supplied mask. `run_dsa_campaign` is this
/// plus uniform mask sampling over the whole run; calling it directly lets
/// harnesses window injections (e.g. into the late tail of the run, where
/// the checkpoint ladder pays off most).
pub fn run_dsa_masks(
    golden: &DsaGolden,
    target: Target,
    masks: &[FaultMask],
    cc: &CampaignConfig,
) -> CampaignResult {
    let ladder = build_dsa_ladder(golden, cc);
    let ladder_ref = (!ladder.is_empty()).then_some(&ladder);
    let records = collect_records(masks.len(), |skip, sink| {
        drive_dsa_masks(golden, target, ladder_ref, masks, cc, skip, None, sink)
    });
    golden.publish_metrics(&cc.telemetry.registry);
    CampaignResult {
        target,
        records,
        bit_population: golden.harness.bit_len(target),
        golden_exec_cycles: golden.cycles,
        confidence: cc.confidence,
    }
}

/// Whether a campaign drives runs on the event engine: the config opted
/// in *and* golden prep armed a schedule + replay trace (designs the
/// schedule builder rejects fall back to the cycle oracle silently —
/// both engines are bit-identical, so the fallback is purely a speed
/// question).
fn dsa_event_engine(golden: &DsaGolden, cc: &CampaignConfig) -> bool {
    cc.dsa_engine == DsaEngine::Event && golden.harness.accel.replay_armed()
}

/// Execute one DSA injection run into `target`: start from the deepest
/// ladder rung strictly below the injection cycle (the cycle-0 harness
/// for permanents and early injections), dirty-reset the worker's
/// harness when given a context, drive the run to an end and classify
/// it. The DSA counterpart of [`crate::campaign::run_one_spanned`].
fn run_dsa_one(
    golden: &DsaGolden,
    target: Target,
    ladder: Option<&DsaLadder>,
    mask: &FaultMask,
    cc: &CampaignConfig,
    ctx: Option<&mut WorkerCtx<DsaHarness>>,
    lane: &mut SpanLane,
) -> RunRecord {
    let tel = &cc.telemetry;
    let watchdog = golden.watchdog();
    let mut fr = if tel.flight_capacity > 0 {
        FlightRecorder::new(tel.flight_capacity)
    } else {
        FlightRecorder::disabled()
    };
    let inject_at = match mask.model {
        FaultModel::Transient { cycle } => Some(cycle),
        _ => None,
    };
    let (base, base_cycle, ahead) = select_base(&golden.harness, 0, ladder, inject_at);
    record_prefix::<DsaHarness>(&tel.registry, 0, base_cycle, inject_at);
    let mut owned: Option<Box<DsaHarness>> = None;
    let h = acquire(base, base_cycle, tel, ctx, &mut owned, lane);
    // Pin the drive engine after positioning — resets copy the base's
    // engine, and the pristine golden harness stays on the cycle oracle.
    let event = dsa_event_engine(golden, cc);
    if event {
        h.accel.set_engine_event();
    } else {
        h.accel.set_engine_cycle();
    }
    // The event engine needs the shadow planes even in non-taint
    // campaigns: replay memoization is gated on untainted inputs.
    if tel.taint || event {
        // Before arming: the injection seeds the shadow planes. The
        // fault-free prefix carries no taint, so enabling at a rung
        // matches enabling at cycle 0.
        h.accel.enable_taint(&target.name());
    }
    let end = h.drive(Some(mask), watchdog, Some((cc, ahead)), &mut fr, lane);
    let (effect, trap, cycles, early_terminated, converged) = match end {
        DsaRunEnd::Finished(outcome) => {
            let (effect, trap) = match &outcome {
                DsaOutcome::Done { output, .. } if *output == golden.output => {
                    (FaultEffect::Masked, None)
                }
                DsaOutcome::Done { .. } => (FaultEffect::Sdc, None),
                DsaOutcome::Error { .. } => (FaultEffect::Crash, Some("accel-error")),
                DsaOutcome::Timeout => (FaultEffect::Crash, Some("watchdog")),
            };
            let cycles = match outcome {
                DsaOutcome::Done { cycles, .. } | DsaOutcome::Error { cycles } => cycles,
                DsaOutcome::Timeout => watchdog,
            };
            (effect, trap, cycles, false, false)
        }
        DsaRunEnd::MaskedEarly { cycles } => (FaultEffect::Masked, None, cycles, true, false),
        DsaRunEnd::Converged => (FaultEffect::Masked, None, golden.cycles, false, true),
    };
    if fr.is_enabled() {
        match h.fault_fate(target) {
            Some(SramFate::Read) => fr.record(cycles, Event::BitRead),
            Some(SramFate::Overwritten) => fr.record(cycles, Event::BitOverwritten),
            _ => {}
        }
        fr.record(cycles, Event::Classified { effect: effect_tag(effect) });
    }
    // Attribution only when the user asked for taint — planes enabled
    // solely for replay memoization must not change exports vs the cycle
    // oracle.
    let attribution =
        if tel.taint { taint_finish(h.accel.taint_tracer().map(|t| t.report()), &mut fr) } else { None };
    let forensics = (fr.is_enabled() && effect != FaultEffect::Masked).then(|| fr.take());
    RunRecord { effect, hvf: None, trap, early_terminated, converged, cycles, forensics, attribution }
}

/// Incrementally drive the subset of `masks` *not* marked in `skip`
/// through the campaign worker pool, handing each finished [`RunRecord`]
/// to `sink` as it lands (completion order, tagged with its mask index).
/// The DSA counterpart of [`crate::campaign::drive_masks`] — same
/// skip/cancel/sink contract, same per-mask determinism guarantee.
#[allow(clippy::too_many_arguments)]
pub fn drive_dsa_masks(
    golden: &DsaGolden,
    target: Target,
    ladder_ref: Option<&DsaLadder>,
    masks: &[FaultMask],
    cc: &CampaignConfig,
    skip: &[bool],
    cancel: Option<&AtomicBool>,
    sink: &(dyn Fn(usize, RunRecord) + Sync),
) -> DriveOutcome {
    let order = claim_order(masks, skip, ladder_ref.is_some());
    let bit_len = golden.harness.bit_len(target);
    let reg = &cc.telemetry.registry;
    let scope = Scope::new("dsa");
    reg.publish_scoped(&scope, "bit_population", bit_len);
    reg.publish_scoped(&scope, "golden_cycles", golden.cycles);
    // Registered up front, so permanent-only drives export them too.
    reg.histogram(DsaHarness::PREFIX_CYCLES);
    reg.histogram(DsaHarness::PREFIX_SKIPPED);
    let dirty = cc.reset_mode == ResetMode::Dirty;
    let run_unit = |&i: &usize,
                    ctx: &mut WorkerCtx<DsaHarness>,
                    lane: &mut SpanLane,
                    retired: &mut Vec<(usize, RunRecord)>| {
        lane.begin_run(i as u64);
        let rec = run_dsa_one(golden, target, ladder_ref, &masks[i], cc, dirty.then_some(ctx), lane);
        lane.end_run();
        retired.push((i, rec));
    };
    let runs = order.len() as u64;
    let population = bit_len.saturating_mul(golden.cycles.max(1));
    drive_pool("dsa", "dsa-worker", &order, runs, population, cc, cancel, sink, run_unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_accel::air::{CdfgBuilder, MemRef};
    use marvel_accel::{DmaDir, FuConfig, Sram, SramKind};
    use marvel_isa::AluOp;

    /// OUT[i] = IN[i] * 3, i in 0..8 (u64).
    fn triple_harness() -> DsaHarness {
        let mut g = CdfgBuilder::new();
        let entry = g.block(0);
        let body = g.block(1);
        let done = g.block(0);
        g.select(entry);
        let z = g.konst(0);
        g.jump(body, &[z]);
        g.select(body);
        let i = g.arg(0);
        let eight = g.konst(8);
        let addr = g.alu(AluOp::Mul, i, eight);
        let v = g.load(MemRef::Spm(0), 8, addr);
        let three = g.konst(3);
        let v3 = g.alu(AluOp::Mul, v, three);
        g.store(MemRef::Spm(1), 8, addr, v3);
        let one = g.konst(1);
        let i2 = g.alu(AluOp::Add, i, one);
        let n = g.konst(8);
        let more = g.alu(AluOp::Sltu, i2, n);
        g.branch(more, body, &[i2], done, &[]);
        g.select(done);
        g.finish();
        let accel = Accelerator::new(
            "triple",
            g.build().unwrap(),
            FuConfig::default(),
            vec![Sram::new("IN", SramKind::Spm, 64, 2), Sram::new("OUT", SramKind::Spm, 64, 2)],
            vec![],
            0,
        );
        let mut ram = vec![0u8; 256];
        for i in 0..8u64 {
            ram[(i * 8) as usize..(i * 8 + 8) as usize].copy_from_slice(&(i + 1).to_le_bytes());
        }
        DsaHarness::new(
            accel,
            ram,
            vec![DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 64 }],
            vec![DmaJob { dir: DmaDir::ToRam, ram_off: 128, mem: MemRef::Spm(1), mem_off: 0, len: 64 }],
            vec![],
            128..192,
        )
    }

    #[test]
    fn golden_run_correct() {
        let g = DsaGolden::prepare(triple_harness(), 100_000);
        for i in 0..8u64 {
            let off = (i * 8) as usize;
            let v = u64::from_le_bytes(g.output[off..off + 8].try_into().unwrap());
            assert_eq!(v, (i + 1) * 3);
        }
        assert!(g.cycles > 10);
    }

    #[test]
    fn input_spm_campaign_mostly_sdc() {
        let g = DsaGolden::prepare(triple_harness(), 100_000);
        let cc = CampaignConfig { n_faults: 60, workers: 4, ladder_rungs: 0, ..Default::default() };
        let res = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &cc);
        assert_eq!(res.records.len(), 60);
        // Data SPM faults corrupt outputs but never addresses: SDC-heavy,
        // crash-free (the paper's Observation #6 for FFT/GEMM-style SPMs).
        assert!(res.crash_avf() < 1e-9);
        assert!(res.sdc_avf() > 0.2, "sdc {}", res.sdc_avf());
        assert!(res.avf() < 1.0);
    }

    #[test]
    fn permanent_dsa_faults() {
        let g = DsaGolden::prepare(triple_harness(), 100_000);
        let cc = CampaignConfig {
            n_faults: 30,
            kind: crate::fault::FaultKind::Permanent,
            workers: 4,
            ladder_rungs: 0,
            ..Default::default()
        };
        let res = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 1 }, &cc);
        assert_eq!(res.records.len(), 30);
    }

    #[test]
    fn reset_modes_produce_identical_records() {
        let g = DsaGolden::prepare(triple_harness(), 100_000);
        let mk = |mode, kind| CampaignConfig {
            n_faults: 24,
            kind,
            workers: 3,
            reset_mode: mode,
            ladder_rungs: 0,
            ..Default::default()
        };
        for kind in [crate::fault::FaultKind::Transient, crate::fault::FaultKind::Permanent] {
            let rc = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &mk(ResetMode::Clone, kind));
            let rd = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &mk(ResetMode::Dirty, kind));
            let key = |r: &RunRecord| (r.effect, r.trap, r.cycles);
            let kc: Vec<_> = rc.records.iter().map(key).collect();
            let kd: Vec<_> = rd.records.iter().map(key).collect();
            assert_eq!(kc, kd, "{kind:?}");
        }
    }

    #[test]
    fn ladder_and_convergence_match_oracle() {
        // Ladder prefix elimination + convergence exit must not change a
        // single record relative to the full-prefix oracle, in either
        // reset mode and for both fault models.
        let g = DsaGolden::prepare(triple_harness(), 100_000);
        let mk = |rungs: usize, conv, mode, kind| CampaignConfig {
            n_faults: 24,
            kind,
            workers: 3,
            reset_mode: mode,
            ladder_rungs: rungs,
            convergence_exit: conv,
            ..Default::default()
        };
        let key = |r: &RunRecord| (r.effect, r.trap, r.early_terminated, r.cycles);
        for kind in [crate::fault::FaultKind::Transient, crate::fault::FaultKind::Permanent] {
            let oracle = run_dsa_campaign(
                &g,
                Target::Spm { accel: 0, mem: 0 },
                &mk(0, false, ResetMode::Clone, kind),
            );
            let ko: Vec<_> = oracle.records.iter().map(key).collect();
            for mode in [ResetMode::Clone, ResetMode::Dirty] {
                let fast =
                    run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &mk(6, true, mode, kind));
                let kf: Vec<_> = fast.records.iter().map(key).collect();
                assert_eq!(ko, kf, "{kind:?} {mode:?}");
            }
        }
        // Rungs are ascending and strictly inside the injection window.
        let ladder = g.build_ladder(6);
        let cycles = ladder.cycles();
        assert!(!cycles.is_empty());
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        assert!(cycles.iter().all(|&c| c > 0 && c < g.cycles));
    }

    #[test]
    fn deterministic() {
        let g = DsaGolden::prepare(triple_harness(), 100_000);
        let cc = CampaignConfig { n_faults: 16, workers: 3, ladder_rungs: 0, ..Default::default() };
        let r1 = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &cc);
        let r2 = run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &cc);
        let e1: Vec<_> = r1.records.iter().map(|r| r.effect).collect();
        let e2: Vec<_> = r2.records.iter().map(|r| r.effect).collect();
        assert_eq!(e1, e2);
    }
}
