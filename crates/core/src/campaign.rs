//! CPU-side statistical fault-injection campaigns (the paper's Fig. 2
//! layout): checkpoint preparation, parallel workers, early termination,
//! and AVF/HVF classification.

use crate::fault::{FaultKind, FaultMask, FaultModel, MaskGenerator};
pub use crate::ladder::Ladder;
use crate::ladder::{build_timed, record_prefix, select_base, Base, Freeze, RunState, FROZEN_RUNGS};
use crate::stats::{error_margin, CONFIDENCE};
use marvel_cpu::{each_lane, CoreStats, FaultFate, ForkCause, StateDiff, TraceMode, MAX_LANES};
use marvel_soc::{RunOutcome, RungView, SysEvent, System, Target};
use marvel_telemetry::{
    Attribution, Event, FlightDump, FlightRecorder, PhaseId, ProgressMeter, Registry, Scope,
    SpanCollector, SpanLane, TaintReport,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// AVF fault-effect classes (Section IV-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEffect {
    /// No observable deviation from the fault-free run.
    Masked,
    /// Completed normally with different program output.
    Sdc,
    /// Trap, hang or other catastrophic interruption.
    Crash,
}

/// HVF fault-effect classes (Section IV-D): did the fault become visible
/// at the commit stage?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HvfEffect {
    Masked,
    Corruption,
}

/// Result of one injection run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub effect: FaultEffect,
    /// HVF classification (when the campaign collects it) — computed from
    /// the *same run*, enabling the paper's fault-propagation correlation.
    pub hvf: Option<HvfEffect>,
    /// Trap tag for crashes.
    pub trap: Option<&'static str>,
    /// The run was cut short by the early-termination optimisation.
    pub early_terminated: bool,
    /// The run was cut short by the dirty-diff convergence exit: its state
    /// matched the golden run's at a ladder rung, so the remaining tail
    /// was skipped and `cycles` reports the golden execution length the
    /// full run would have reached.
    pub converged: bool,
    /// Simulated cycles of this run (from checkpoint).
    pub cycles: u64,
    /// Flight-recorder timeline, retained only for SDC/Crash runs of
    /// campaigns that enabled the recorder.
    pub forensics: Option<FlightDump>,
    /// marvel-taint attribution: where the fault first became
    /// architecturally visible (or where it was last seen before being
    /// masked). Present only when the campaign enabled taint tracking.
    pub attribution: Option<Attribution>,
}

/// Observability settings carried by [`CampaignConfig`]. The default is
/// fully off: a disabled registry, no progress line, no flight recorder —
/// zero cost on the injection hot path.
///
/// Telemetry is strictly observational: enabling any of it never changes
/// fault classifications (the determinism regression test pins this).
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Registry campaign metrics are published to.
    pub registry: Registry,
    /// Print a live progress line to stderr every this-many milliseconds
    /// (0 = off).
    pub progress_interval_ms: u64,
    /// Per-run flight-recorder event capacity (0 = off). Timelines are
    /// kept only for SDC/Crash runs.
    pub flight_capacity: usize,
    /// Enable marvel-taint shadow tracking: per-run propagation timelines
    /// (into the flight recorder) and per-structure AVF attribution.
    /// Strictly observational — classifications stay bit-identical.
    pub taint: bool,
    /// marvel-spans phase tracing: per-worker span stacks attributing wall
    /// time to campaign phases ([`PhaseId`]), exportable as a Chrome trace
    /// and a per-phase attribution table. Disabled by default (the
    /// enter/exit hot path is then a single branch).
    pub spans: SpanCollector,
}

/// How each injection run obtains its starting state.
///
/// Both modes produce bit-identical campaign results at any worker count
/// (the differential regression tests pin this); they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetMode {
    /// Deep-clone the golden checkpoint for every run. The original path,
    /// kept as the oracle the differential suites hold dirty reset to.
    Clone,
    /// Zero-copy: each worker keeps one reusable [`System`] and undoes
    /// dirty state (journaled RAM pages, cache sets, registers) against
    /// the shared pristine checkpoint between runs.
    #[default]
    Dirty,
}

/// Which stepping engine DSA campaigns drive the accelerator with.
///
/// Both engines produce bit-identical campaign results (the engine
/// differential test pins this); they differ only in cost. Event falls
/// back to Cycle automatically when a design is unschedulable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DsaEngine {
    /// Tick-every-cycle CDFG execution — the original oracle, kept for
    /// the differential suites.
    Cycle,
    /// Event-driven stepping over the precomputed static schedule with
    /// memoized golden-trace replay.
    #[default]
    Event,
}

/// A run is declared hung (Crash, trap tag `watchdog`) once it has run
/// this many times the golden run's length, plus a fixed slack
/// ([`Golden::watchdog`], [`crate::dsa::DsaGolden::watchdog`]).
pub(crate) const WATCHDOG_FACTOR: u64 = 3;

/// Cycle budget of a CPU golden run ([`Golden::prepare`]), the one
/// `marvel campaign`, campaign specs and the paper-figure harnesses use.
pub const CPU_GOLDEN_BUDGET: u64 = 200_000_000;

/// Campaign-wide configuration. [`Default`] is the shipped
/// configuration — the one `marvel campaign`, `marvel dsa`, campaign
/// specs and the paper-figure harnesses run: a 32-rung ladder (8 on the
/// DSA) with the convergence exit, 64-wide lanes, the event DSA engine and dirty
/// reset. The oracle settings (`ladder_rungs: 0`,
/// `convergence_exit: false`, `lane_width: 0`, [`DsaEngine::Cycle`],
/// [`ResetMode::Clone`]) must be named explicitly. Only the ladder is a
/// user setting (`--ladder-rungs`, spec `ladder_rungs`);
/// `convergence_exit`, `lane_width`, `dsa_engine` and `reset_mode` are
/// set only by code — the differential suites and the benchmark's oracle
/// audit — since each merely selects a slower path to the same records.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub n_faults: usize,
    pub kind: FaultKind,
    pub seed: u64,
    /// Collect the HVF classification alongside AVF (same runs).
    pub collect_hvf: bool,
    /// Worker threads (0 = all available cores).
    pub workers: usize,
    /// Enable the fault-overwritten/invalid-entry early termination.
    pub early_termination: bool,
    /// Run-state reset strategy (zero-copy dirty reset vs. deep clone).
    pub reset_mode: ResetMode,
    /// Intermediate checkpoint-ladder rungs across the injection window
    /// (32 by default): an upper bound, since a campaign uses at most the
    /// rungs its golden run froze — 32 on the CPU, 8 on the DSA. Transient
    /// runs start from the nearest rung at or below their injection cycle
    /// instead of replaying the whole prefix. 0 = off: the full-prefix
    /// oracle path.
    pub ladder_rungs: usize,
    /// Dirty-diff convergence exit (on by default): at each rung crossing
    /// after injection, compare the run's dirty state against the golden
    /// snapshot at the same cycle and terminate as Masked on exact match.
    /// Has an effect only where a ladder is in use ([`Self::uses_ladder`]).
    pub convergence_exit: bool,
    /// Accelerator stepping engine for DSA campaigns (ignored by CPU
    /// campaigns). Event by default; Cycle is the differential oracle.
    pub dsa_engine: DsaEngine,
    /// Lane-packed execution width for CPU campaigns: up to this many
    /// single-bit transient faults on the same target and ladder segment
    /// share one golden pass as lanes, each forked out to an
    /// ordinary scalar run the moment its divergence could touch control
    /// flow, a memory address or store data. `0` disables packing (the
    /// scalar oracle); values are clamped to `2..=64`. Records are
    /// bit-identical to the scalar path at any width (the lane
    /// differential test pins this).
    pub lane_width: usize,
    /// Observability (metrics, progress line, flight recorder).
    pub telemetry: TelemetryConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            n_faults: 1000,
            kind: FaultKind::Transient,
            seed: 0xC0FFEE,
            collect_hvf: false,
            workers: 0,
            early_termination: true,
            reset_mode: ResetMode::default(),
            ladder_rungs: System::RUNGS,
            convergence_exit: true,
            dsa_engine: DsaEngine::default(),
            lane_width: 64,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// Whether campaigns under this config build a checkpoint ladder:
    /// only transient runs restore a rung or take the convergence exit,
    /// so a permanent campaign, whose runs all start at the checkpoint,
    /// builds none.
    pub fn uses_ladder(&self) -> bool {
        self.ladder_rungs > 0 && self.kind == FaultKind::Transient
    }
}

/// Errors preparing the golden reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenError {
    /// The program crashed or timed out fault-free.
    BadGoldenRun(String),
}

impl std::fmt::Display for GoldenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoldenError::BadGoldenRun(s) => write!(f, "golden run failed: {s}"),
        }
    }
}

impl std::error::Error for GoldenError {}

/// Golden reference: the checkpointed system plus the fault-free outcome.
#[derive(Debug, Clone)]
pub struct Golden {
    /// System state at the checkpoint marker (warm caches included).
    pub ckpt: System,
    pub ckpt_cycle: u64,
    /// Cycles from checkpoint to halt in the fault-free run.
    pub exec_cycles: u64,
    pub output: Vec<u8>,
    /// Golden commit trace for HVF comparison.
    pub trace: Arc<Vec<marvel_cpu::CommitRecord>>,
    pub stats: CoreStats,
    /// Cycle at which the `SwitchCpu` marker committed in the golden run
    /// (used for directed injection windows, e.g. the Listing 1 sanity
    /// check).
    pub switch_cycle: Option<u64>,
    /// The checkpoint was produced by the reference-model fast-forward
    /// ([`Golden::prepare_fast`]) rather than cycle-level warmup.
    pub ref_prepped: bool,
    /// The checkpoint ladder frozen during the golden run: 32 compact
    /// rungs (fewer on a very short run), each laid over `ckpt` when a
    /// run restores or compares it, shared by every campaign on this
    /// golden run ([`build_campaign_ladder`]).
    ladder: Ladder,
}

impl Golden {
    /// Run `sys` (already loaded) to its checkpoint marker, snapshot it,
    /// then complete the fault-free run recording output + commit trace
    /// and freezing the checkpoint ladder — one simulation of the program.
    ///
    /// Programs without a `Checkpoint` marker are checkpointed at cycle 0.
    ///
    /// # Errors
    /// [`GoldenError::BadGoldenRun`] if the fault-free run traps or
    /// exceeds `max_cycles`.
    pub fn prepare(mut sys: System, max_cycles: u64) -> Result<Golden, GoldenError> {
        loop {
            match sys.tick() {
                SysEvent::Checkpoint => break,
                SysEvent::Halted => {
                    return Err(GoldenError::BadGoldenRun("halted before checkpoint".into()))
                }
                SysEvent::Trapped(t) => {
                    return Err(GoldenError::BadGoldenRun(format!("trapped before checkpoint: {t}")))
                }
                _ => {}
            }
            if sys.cycle >= max_cycles {
                // No checkpoint marker within budget. Re-running the
                // initial state could only time out again (halting or
                // trapping inside the budget would have been caught
                // above), so report that outcome without the re-run.
                return Err(GoldenError::BadGoldenRun("golden run timed out".into()));
            }
        }
        Self::run(sys, max_cycles, false)
    }

    /// Reference-model fast-forward variant of [`prepare`](Self::prepare):
    /// the pre-checkpoint warmup runs on the architectural interpreter
    /// (`marvel-ref`) instead of the cycle-level core, then the
    /// architectural state is transplanted into the O3 core and the
    /// caches are warmed by replaying the recorded line-access trace.
    /// Campaign setup skips the expensive cycle-level warmup entirely —
    /// the golden run itself (and every injection run) is still fully
    /// cycle-level.
    ///
    /// `max_cycles` bounds the fast-forward in *instructions* and the
    /// golden run in cycles, mirroring `prepare`'s budget. The resulting
    /// `ckpt_cycle` is 0: injection windows and watchdogs are expressed
    /// relative to the (cycle-level) post-checkpoint execution, exactly
    /// as with a marker-less program under `prepare`.
    ///
    /// Falls back to `prepare` when the system hosts accelerators — the
    /// reference model executes only the CPU side.
    pub fn prepare_fast(mut sys: System, max_cycles: u64) -> Result<Golden, GoldenError> {
        if !sys.bus.accels.is_empty() {
            return Self::prepare(sys, max_cycles);
        }
        let line = sys.core.cfg.l1i.line as u64;
        let mut mem = marvel_ref::RefMem::new(sys.bus.ram.clone());
        mem.enable_trace(line);
        let mut cpu = marvel_ref::RefCpu::with_line(sys.core.isa(), sys.core.arch_pc(), line);
        cpu.set_regs(&sys.core.arch_regs());
        match cpu.run_to_checkpoint(&mut mem, max_cycles) {
            marvel_ref::RefRunOutcome::Checkpoint { .. } => {
                sys.bus.console = std::mem::take(&mut mem.console);
                sys.bus.ram = std::mem::take(&mut mem.ram);
                sys.core.transplant_arch_state(cpu.pc(), cpu.regs());
                let lines = mem.trace_lines();
                let System { core, bus, .. } = &mut sys;
                core.warm_caches(bus, &lines);
                sys.checkpoint_cycle = Some(0);
            }
            marvel_ref::RefRunOutcome::Halted { .. } => {
                return Err(GoldenError::BadGoldenRun("halted before checkpoint".into()))
            }
            marvel_ref::RefRunOutcome::Trapped { trap, .. } => {
                return Err(GoldenError::BadGoldenRun(format!("trapped before checkpoint: {trap}")))
            }
            // No checkpoint marker within budget: keep the untouched
            // initial state, matching `prepare`'s marker-less contract
            // (the interpreter ran on a RAM copy).
            marvel_ref::RefRunOutcome::OutOfBudget => {}
        }
        Self::run(sys, max_cycles, true)
    }

    /// The golden run from the checkpoint `sys` stands at: snapshot the
    /// checkpoint exactly once, then continue the same system to its halt,
    /// recording the commit trace and freezing the checkpoint ladder on
    /// the way. Its state *is* the checkpoint, so the run matches one from
    /// a fresh clone bit for bit.
    fn run(mut sys: System, max_cycles: u64, ref_prepped: bool) -> Result<Golden, GoldenError> {
        let ckpt_cycle = sys.cycle;
        sys.core.restart_trace();
        let ckpt = sys.clone();
        sys.core.trace_mode = TraceMode::Record;
        sys.enable_dirty_tracking();
        let mut freeze = Freeze::new(ckpt_cycle, 1);
        let halt = loop {
            if sys.cycle >= max_cycles {
                return Err(GoldenError::BadGoldenRun("golden run timed out".into()));
            }
            match sys.tick() {
                SysEvent::Halted => break sys.cycle,
                SysEvent::Trapped(t) => {
                    return Err(GoldenError::BadGoldenRun(format!("golden run trapped: {t}")))
                }
                _ => {}
            }
            if sys.cycle == freeze.next_cycle() {
                freeze.take(&mut sys);
            }
        };
        let exec_cycles = halt - ckpt_cycle;
        let trace = Arc::new(std::mem::take(&mut sys.core.trace));
        let (output, stats, switch_cycle) =
            (std::mem::take(&mut sys.bus.console), sys.core.stats.clone(), sys.switch_cycle);
        let ladder = freeze.finish(exec_cycles);
        Ok(Golden {
            ckpt,
            ckpt_cycle,
            exec_cycles,
            output,
            trace,
            stats,
            switch_cycle,
            ref_prepped,
            ladder,
        })
    }

    /// Injection window: every cycle of the post-checkpoint execution.
    pub fn injection_window(&self) -> std::ops::Range<u64> {
        self.ckpt_cycle..self.ckpt_cycle + self.exec_cycles
    }

    /// Export golden-run facts and checkpoint-state structure metrics
    /// under `golden.*` (warm caches, occupancies at the checkpoint).
    pub fn publish_metrics(&self, reg: &Registry) {
        if !reg.is_enabled() {
            return;
        }
        let scope = Scope::new("golden");
        reg.publish_scoped(&scope, "ckpt_cycle", self.ckpt_cycle);
        reg.publish_scoped(&scope, "exec_cycles", self.exec_cycles);
        reg.publish_scoped(&scope, "output_bytes", self.output.len() as u64);
        reg.publish_scoped(&scope, "trace_commits", self.trace.len() as u64);
        self.ckpt.publish_metrics(reg, &scope.child("soc"));
    }

    /// Cycle at which an injection run is declared hung: the checkpoint
    /// plus [`WATCHDOG_FACTOR`] golden run lengths, plus slack.
    pub(crate) fn watchdog(&self) -> u64 {
        self.ckpt_cycle + self.exec_cycles.saturating_mul(WATCHDOG_FACTOR) + 50_000
    }
}

/// Record the first observed fate transition of the armed bit.
fn note_fate(fr: &mut FlightRecorder, cycle: u64, fate: Option<FaultFate>, seen: &mut bool) {
    if *seen || !fr.is_enabled() {
        return;
    }
    match fate {
        Some(FaultFate::Read) => {
            fr.record(cycle, Event::BitRead);
            *seen = true;
        }
        Some(FaultFate::Overwritten) => {
            fr.record(cycle, Event::BitOverwritten);
            *seen = true;
        }
        Some(FaultFate::InvalidAtInjection) => {
            fr.record(cycle, Event::InvalidEntry);
            *seen = true;
        }
        _ => {}
    }
}

pub(crate) fn effect_tag(e: FaultEffect) -> &'static str {
    match e {
        FaultEffect::Masked => "Masked",
        FaultEffect::Sdc => "SDC",
        FaultEffect::Crash => "Crash",
    }
}

/// Replay a taint report into the flight recorder (hop timeline plus the
/// arch-reach / masked terminal event) and reduce it to an attribution.
pub(crate) fn taint_finish(rep: Option<TaintReport>, fr: &mut FlightRecorder) -> Option<Attribution> {
    let rep = rep?;
    if fr.is_enabled() {
        for h in &rep.hops {
            fr.record(h.cycle, Event::TaintHop { from: h.from, to: h.to });
        }
        match &rep.first_arch {
            Some((c, s)) => fr.record(*c, Event::TaintArch { structure: s.clone() }),
            None => {
                let (c, s) = rep.last_loc.clone().unwrap_or((0, rep.seed.clone()));
                fr.record(c, Event::TaintMasked { structure: s });
            }
        }
    }
    Some(rep.attribution())
}

/// Reusable per-worker run state for [`ResetMode::Dirty`]: one `S` (a
/// [`System`] or a [`crate::dsa::DsaHarness`]) cloned from the pristine
/// checkpoint once, kept alive across runs and restored to each run's
/// base rung, instead of a deep clone per run.
#[derive(Debug)]
pub struct WorkerCtx<S: RunState> {
    state: Option<Box<S>>,
    /// The rung the state was last restored to (`None`: the checkpoint).
    laid: Option<Arc<S::Frozen>>,
}

impl<S: RunState> Default for WorkerCtx<S> {
    fn default() -> Self {
        WorkerCtx { state: None, laid: None }
    }
}

impl<S: RunState> WorkerCtx<S> {
    pub fn new() -> Self {
        WorkerCtx::default()
    }
}

/// Execute one injection run from a fresh deep clone of the checkpoint,
/// with no ladder — the oracle path. Campaigns route through
/// [`run_one_spanned`].
pub fn run_one(golden: &Golden, mask: &FaultMask, cc: &CampaignConfig) -> RunRecord {
    run_one_spanned(golden, None, mask, cc, None, &mut SpanLane::disabled())
}

/// How the post-injection simulation loop ended — lets the span around it
/// close before the record is built, whichever exit path fired.
enum LoopEnd {
    Outcome(RunOutcome),
    /// Dirty-diff convergence exit at a ladder rung.
    Converged,
    /// Early termination: the fate monitor proved the fault dead.
    MaskedEarly,
}

/// Establish a run's (or lane pass's) starting state at `base`: restore
/// the worker's reusable state — a dirty reset when its base rung is
/// unchanged, a move between rungs otherwise — or, for a context-less
/// run, pay one deep clone of the checkpoint into `owned`. Shared by CPU
/// runs, CPU lane passes and DSA runs, so every path pays the same
/// reset behaviour.
pub(crate) fn acquire<'a, S: RunState>(
    base: &Base<'_, S>,
    tel: &TelemetryConfig,
    ctx: Option<&'a mut WorkerCtx<S>>,
    owned: &'a mut Option<Box<S>>,
    lane: &mut SpanLane,
) -> &'a mut S {
    let reset_start = tel.registry.is_enabled().then(std::time::Instant::now);
    let to = base.laid.map(|r| &**r);
    let Some(WorkerCtx { state, laid }) = ctx else {
        lane.enter(PhaseId::RungRestore);
        let mut s = Box::new(base.ckpt.clone());
        if to.is_some() {
            s.restore(base.ckpt, None, to);
        }
        lane.exit(PhaseId::RungRestore);
        if let (Some(t0), Some(name)) = (reset_start, S::RESTORE_NS) {
            if let Some(h) = tel.registry.histogram(name) {
                h.record(t0.elapsed().as_nanos() as u64);
            }
        }
        return owned.insert(s);
    };
    let same_rung = match (&*laid, base.laid) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    };
    match &mut *state {
        Some(s) if same_rung => {
            lane.enter(PhaseId::DirtyReset);
            let bytes = s.restore(base.ckpt, to, to);
            lane.exit(PhaseId::DirtyReset);
            if let Some(t0) = reset_start {
                if let Some(h) = tel.registry.histogram(S::RESET_NS) {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                if let Some(h) = tel.registry.histogram(S::RESET_BYTES) {
                    h.record(bytes);
                }
            }
        }
        slot => {
            // First run on this worker — pay the one clone of the
            // checkpoint and arm its write journals — or the base rung
            // changed: move to the new rung. (Claim order is
            // rung-monotone, so each worker moves at most once per rung.)
            lane.enter(PhaseId::RungRestore);
            let s = slot.get_or_insert_with(|| {
                let mut s = Box::new(base.ckpt.clone());
                s.track_writes();
                s
            });
            s.restore(base.ckpt, laid.as_deref(), to);
            lane.exit(PhaseId::RungRestore);
            *laid = base.laid.cloned();
        }
    }
    state.as_mut().expect("worker context populated above")
}

/// Why a transient run, or a lane, that crossed a rung did not take the
/// convergence exit there; counted as `campaign.convergence_deferred.*`.
#[derive(Debug, Clone, Copy)]
enum Deferral {
    /// The fate poll will report the run (the fault is dead and early
    /// termination is on).
    FateSplit,
    /// The commit trace diverged from the golden one (HVF Corruption).
    Hvf,
    /// Taint is not quiescent, so the attribution could still change.
    Taint,
    /// The state differs from the rung's, first in this structure.
    State(StateDiff),
}

/// The `state` deferrals of every structure, summed.
const DEFERRED_STATE: &str = "campaign.convergence_deferred.state";

impl Deferral {
    /// How many distinct deferrals [`index`](Self::index) tells apart.
    const COUNT: usize = 3 + StateDiff::ALL.len();

    /// Every deferral, in [`index`](Self::index) order.
    fn all() -> impl Iterator<Item = Deferral> {
        [Deferral::FateSplit, Deferral::Hvf, Deferral::Taint]
            .into_iter()
            .chain(StateDiff::ALL.map(Deferral::State))
    }

    fn index(self) -> usize {
        match self {
            Deferral::FateSplit => 0,
            Deferral::Hvf => 1,
            Deferral::Taint => 2,
            Deferral::State(s) => 3 + s as usize,
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Deferral::FateSplit => "campaign.convergence_deferred.fate_split",
            Deferral::Hvf => "campaign.convergence_deferred.hvf",
            Deferral::Taint => "campaign.convergence_deferred.taint",
            Deferral::State(s) => match s {
                StateDiff::Devices => "campaign.convergence_deferred.state.devices",
                StateDiff::Ram => "campaign.convergence_deferred.state.ram",
                StateDiff::Pipeline => "campaign.convergence_deferred.state.pipeline",
                StateDiff::Rob => "campaign.convergence_deferred.state.rob",
                StateDiff::Lsq => "campaign.convergence_deferred.state.lsq",
                StateDiff::Rename => "campaign.convergence_deferred.state.rename",
                StateDiff::Bp => "campaign.convergence_deferred.state.bp",
                StateDiff::Prf => "campaign.convergence_deferred.state.prf",
                StateDiff::L1i => "campaign.convergence_deferred.state.l1i",
                StateDiff::L1d => "campaign.convergence_deferred.state.l1d",
                StateDiff::L2 => "campaign.convergence_deferred.state.l2",
            },
        }
    }

    /// Add `n` to this deferral's counter (and to the `state` sum).
    fn count(self, reg: &Registry, n: u64) {
        if n > 0 {
            reg.counter(self.metric()).add(n);
            if let Deferral::State(_) = self {
                reg.counter(DEFERRED_STATE).add(n);
            }
        }
    }
}

/// Arm `mask` on `sys`: hold its bits stuck from here on (a permanent,
/// armed at the checkpoint), or tick to its injection cycle, stopping
/// early at a halt, a trap or `watchdog`, and flip them (a transient).
/// With `taint`, the shadow planes are enabled just before the fault
/// lands: the fault itself seeds them, and the fault-free prefix carries
/// no taint anyway.
fn arm_fault(sys: &mut System, mask: &FaultMask, watchdog: u64, taint: bool) {
    if let FaultModel::Transient { cycle } = mask.model {
        while sys.cycle < cycle {
            if let SysEvent::Halted | SysEvent::Trapped(_) = sys.tick() {
                break;
            }
            if sys.cycle >= watchdog {
                break;
            }
        }
    }
    if taint {
        sys.enable_taint(mask.target);
    }
    for &b in &mask.bits {
        match mask.model {
            FaultModel::Permanent { value } => sys.set_stuck(mask.target, b, value),
            FaultModel::Transient { .. } => sys.flip(mask.target, b),
        }
    }
}

/// Execute one injection run. With a ladder, transient runs start from
/// the nearest rung at or below their injection cycle (skipping the
/// fault-free prefix) and — when `cc.convergence_exit` is set — compare
/// dirty state against golden rung snapshots at each later rung
/// crossing, exiting as Masked on exact convergence. With a worker
/// context, the context's system is dirty-reset from the shared pristine
/// base instead of deep-cloned. Campaign workers pass their span lane so
/// the run's phases land in the marvel-spans trace;
/// `SpanLane::disabled()` makes this the un-traced path. Records are
/// identical to [`run_one`]'s whatever the ladder, context or lane.
pub fn run_one_spanned(
    golden: &Golden,
    ladder: Option<&Ladder>,
    mask: &FaultMask,
    cc: &CampaignConfig,
    ctx: Option<&mut WorkerCtx<System>>,
    lane: &mut SpanLane,
) -> RunRecord {
    let tel = &cc.telemetry;
    let mut fr = if tel.flight_capacity > 0 {
        FlightRecorder::new(tel.flight_capacity)
    } else {
        FlightRecorder::disabled()
    };
    let mut fate_seen = false;

    // Base selection: permanents apply at the checkpoint; transients start
    // from the nearest rung at or below their injection cycle. `ahead`
    // holds the rungs the run will cross after its base.
    let inject_cycle = match mask.model {
        FaultModel::Transient { cycle } => Some(cycle),
        FaultModel::Permanent { .. } => None,
    };
    let base = select_base(&golden.ckpt, golden.ckpt_cycle, ladder, inject_cycle);
    record_prefix(&tel.registry, golden.ckpt_cycle, &base, inject_cycle);
    let mut ahead = base.ahead;

    let mut owned: Option<Box<System>> = None;
    let sys: &mut System = acquire(&base, tel, ctx, &mut owned, lane);
    // Rungs record no trace; HVF runs check theirs against the golden one
    // from the rung's commit count on.
    if cc.collect_hvf {
        sys.core.trace_mode = TraceMode::Check(golden.trace.clone());
    }
    let watchdog = golden.watchdog();

    // Arm the fault.
    let model_tag = match mask.model {
        FaultModel::Permanent { .. } => "permanent",
        FaultModel::Transient { .. } => "transient",
    };
    lane.enter(PhaseId::Inject);
    arm_fault(sys, mask, watchdog, tel.taint);
    lane.exit(PhaseId::Inject);
    fr.record(
        sys.cycle,
        Event::FaultArmed {
            target: mask.target.name(),
            bit: mask.bits.first().copied().unwrap_or(0),
            model: model_tag,
        },
    );

    // If the fault landed in an invalid entry, it is masked immediately.
    if cc.early_termination {
        if let Some(f) = sys.fault_fate(mask.target) {
            if f.is_masked_early() {
                note_fate(&mut fr, sys.cycle, Some(f), &mut fate_seen);
                fr.record(sys.cycle, Event::EarlyTerminated);
                return RunRecord {
                    effect: FaultEffect::Masked,
                    hvf: cc.collect_hvf.then_some(HvfEffect::Masked),
                    trap: None,
                    early_terminated: true,
                    converged: false,
                    cycles: sys.cycle - golden.ckpt_cycle,
                    forensics: None,
                    attribution: taint_finish(sys.taint_report(), &mut fr),
                };
            }
        }
    }

    // Run to completion with periodic early-termination/fate checks. The
    // fate poll is read-only, so the flight recorder never perturbs the
    // simulation.
    let poll_fate = cc.early_termination || fr.is_enabled();
    let mut check_at = sys.cycle + 256;
    lane.enter(PhaseId::SimStepCpu);
    let end = loop {
        match sys.tick() {
            SysEvent::Halted => break LoopEnd::Outcome(RunOutcome::Halted { cycles: sys.cycle }),
            SysEvent::Trapped(t) => {
                break LoopEnd::Outcome(RunOutcome::Crashed { trap: t, cycles: sys.cycle })
            }
            _ => {}
        }
        if sys.cycle >= watchdog {
            break LoopEnd::Outcome(RunOutcome::Timeout);
        }
        // Ladder-rung crossing: merge the golden segment's dirty marks so
        // the journals cover everything *either* run wrote since the base
        // rung, then (optionally) try the dirty-diff convergence exit.
        if let Some(rung) = ahead.first().filter(|r| r.cycle == sys.cycle) {
            ahead = &ahead[1..];
            sys.merge_dirty_marks(&rung.seg);
            if cc.convergence_exit && mask.model.is_transient() {
                let deferral = if sys.core.divergence.is_some() {
                    Some(Deferral::Hvf)
                } else {
                    // Fate split: when the fate monitor already knows the
                    // fault is dead and early termination is on, leave the
                    // exit to the fate poll — it reports the same cycle
                    // count the ladder-less oracle would. Otherwise a
                    // converged run is Masked with the golden run length.
                    let skip = cc.early_termination
                        && sys.fault_fate(mask.target).is_some_and(|f| f.is_masked_early());
                    lane.enter(PhaseId::ConvergenceDiff);
                    let deferral = if skip {
                        Some(Deferral::FateSplit)
                    } else if tel.taint && !sys.taint_quiescent() {
                        Some(Deferral::Taint)
                    } else {
                        let rung = RungView::new(&golden.ckpt, Some(&rung.state));
                        sys.state_diff(rung).map(Deferral::State)
                    };
                    lane.exit(PhaseId::ConvergenceDiff);
                    deferral
                };
                match deferral {
                    Some(d) => d.count(&tel.registry, 1),
                    None => {
                        fr.record(sys.cycle, Event::Converged);
                        break LoopEnd::Converged;
                    }
                }
            }
        }
        if poll_fate && sys.cycle >= check_at {
            check_at = sys.cycle + 1024;
            let fate = sys.fault_fate(mask.target);
            note_fate(&mut fr, sys.cycle, fate, &mut fate_seen);
            if cc.early_termination && mask.model.is_transient() {
                if let Some(f) = fate {
                    if f.is_masked_early() && sys.core.divergence.is_none() {
                        fr.record(sys.cycle, Event::EarlyTerminated);
                        break LoopEnd::MaskedEarly;
                    }
                }
            }
        }
    };
    lane.exit(PhaseId::SimStepCpu);
    let outcome = match end {
        LoopEnd::Outcome(o) => o,
        LoopEnd::Converged => {
            return RunRecord {
                effect: FaultEffect::Masked,
                hvf: cc.collect_hvf.then_some(HvfEffect::Masked),
                trap: None,
                early_terminated: false,
                converged: true,
                cycles: golden.exec_cycles,
                forensics: None,
                attribution: taint_finish(sys.taint_report(), &mut fr),
            }
        }
        LoopEnd::MaskedEarly => {
            return RunRecord {
                effect: FaultEffect::Masked,
                hvf: cc.collect_hvf.then_some(HvfEffect::Masked),
                trap: None,
                early_terminated: true,
                converged: false,
                cycles: sys.cycle - golden.ckpt_cycle,
                forensics: None,
                attribution: taint_finish(sys.taint_report(), &mut fr),
            }
        }
    };
    note_fate(&mut fr, sys.cycle, sys.fault_fate(mask.target), &mut fate_seen);
    if fr.is_enabled() {
        if let Some(seq) = sys.core.divergence {
            fr.record(sys.cycle, Event::FirstDivergence { seq });
        }
    }

    // Classify.
    let (effect, trap) = match &outcome {
        RunOutcome::Halted { .. } => {
            if sys.bus.console == golden.output {
                (FaultEffect::Masked, None)
            } else {
                (FaultEffect::Sdc, None)
            }
        }
        RunOutcome::Crashed { trap, .. } => (FaultEffect::Crash, Some(trap.tag())),
        RunOutcome::Timeout => (FaultEffect::Crash, Some("watchdog")),
    };
    if let Some(tag) = trap {
        fr.record(sys.cycle, Event::Trap { tag });
    }
    let attribution = taint_finish(sys.taint_report(), &mut fr);
    fr.record(sys.cycle, Event::Classified { effect: effect_tag(effect) });
    let hvf = cc.collect_hvf.then(|| {
        // Any commit-stage divergence — or a crash/SDC, which by
        // definition became architecturally visible — counts as
        // Corruption.
        if sys.core.divergence.is_some() || effect != FaultEffect::Masked {
            HvfEffect::Corruption
        } else {
            HvfEffect::Masked
        }
    });
    // Keep the timeline only when the run turned out interesting.
    let forensics = (fr.is_enabled() && effect != FaultEffect::Masked).then(|| fr.take());
    RunRecord {
        effect,
        hvf,
        trap,
        early_terminated: false,
        converged: false,
        cycles: sys.cycle - golden.ckpt_cycle,
        forensics,
        attribution,
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    pub target: Target,
    pub records: Vec<RunRecord>,
    /// Injectable-bit population (for margin reporting).
    pub bit_population: u64,
    pub golden_exec_cycles: u64,
}

impl CampaignResult {
    pub fn n(&self) -> usize {
        self.records.len()
    }

    fn frac(&self, e: FaultEffect) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.effect == e).count() as f64 / self.records.len() as f64
    }

    /// Total AVF = P(SDC) + P(Crash).
    pub fn avf(&self) -> f64 {
        self.frac(FaultEffect::Sdc) + self.frac(FaultEffect::Crash)
    }

    /// SDC-only AVF (the paper's Section V-C).
    pub fn sdc_avf(&self) -> f64 {
        self.frac(FaultEffect::Sdc)
    }

    /// Crash-only AVF.
    pub fn crash_avf(&self) -> f64 {
        self.frac(FaultEffect::Crash)
    }

    /// HVF (fraction of runs whose fault reached the commit stage); `None`
    /// if the campaign did not collect it.
    pub fn hvf(&self) -> Option<f64> {
        if self.records.iter().all(|r| r.hvf.is_none()) {
            return None;
        }
        let n = self.records.len() as f64;
        Some(self.records.iter().filter(|r| r.hvf == Some(HvfEffect::Corruption)).count() as f64 / n)
    }

    /// Fraction of runs cut short by early termination.
    pub fn early_termination_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.early_terminated).count() as f64 / self.records.len() as f64
    }

    /// Fraction of runs cut short by the dirty-diff convergence exit.
    pub fn convergence_exit_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.converged).count() as f64 / self.records.len() as f64
    }

    /// Statistical error margin of the AVF estimate at [`CONFIDENCE`].
    pub fn margin(&self) -> f64 {
        error_margin(
            self.records.len().max(1),
            self.bit_population.saturating_mul(self.golden_exec_cycles.max(1)),
            CONFIDENCE,
        )
    }
}

/// The mask list a campaign over `target` will execute (same seed
/// derivation as [`run_campaign`]) — lets directed re-runs (pipeline
/// trace pairs, forensics replays) target the exact same faults.
pub fn campaign_masks(golden: &Golden, target: Target, cc: &CampaignConfig) -> Vec<FaultMask> {
    let bit_len = golden.ckpt.bit_len(target);
    let mut gen = MaskGenerator::new(cc.seed ^ (target_hash(target)));
    gen.single_bit(target, bit_len, cc.kind, golden.injection_window(), cc.n_faults)
}

/// Re-run one fault as a golden/faulty pair with Konata pipeline tracing
/// enabled, returning the two trace texts. The faulty run also enables
/// taint tracking so corrupted commits are flagged (flushed in red /
/// tainted label in Konata-compatible viewers). Both runs stop at the
/// campaign watchdog.
pub fn trace_pipeline_pair(golden: &Golden, mask: &FaultMask) -> (String, String) {
    let watchdog = golden.watchdog();

    let mut gsys = golden.ckpt.clone();
    gsys.enable_pipe_trace();
    let _ = gsys.run(watchdog);
    let gtrace = gsys.core.pipe_tracer().map(|p| p.render_kanata()).unwrap_or_default();

    let mut fsys = golden.ckpt.clone();
    fsys.enable_pipe_trace();
    arm_fault(&mut fsys, mask, watchdog, true);
    let _ = fsys.run(watchdog);
    let ftrace = fsys.core.pipe_tracer().map(|p| p.render_kanata()).unwrap_or_default();
    (gtrace, ftrace)
}

/// Run a full campaign over `target` with parallel workers, on the
/// golden run's ladder ([`build_campaign_ladder`]).
pub fn run_campaign(golden: &Golden, target: Target, cc: &CampaignConfig) -> CampaignResult {
    let bit_len = golden.ckpt.bit_len(target);
    let masks = campaign_masks(golden, target, cc);
    let population = bit_len.saturating_mul(golden.exec_cycles.max(1));
    let reg = &cc.telemetry.registry;
    reg.publish("campaign.bit_population", bit_len);
    reg.publish("campaign.golden_exec_cycles", golden.exec_cycles);
    let records = drive_all(golden, build_campaign_ladder(golden, cc).as_ref(), &masks, cc, population);
    CampaignResult { target, records, bit_population: bit_len, golden_exec_cycles: golden.exec_cycles }
}

/// Run an explicit mask list (directed experiments, multi-bit studies).
pub fn run_masks(golden: &Golden, masks: &[FaultMask], cc: &CampaignConfig) -> Vec<RunRecord> {
    // No single-target bit population here; u64::MAX drives the progress
    // margin toward the pure 1/sqrt(n) regime.
    drive_all(golden, build_campaign_ladder(golden, cc).as_ref(), masks, cc, u64::MAX)
}

/// Mask sort key for rung-monotone scheduling: permanents first (their
/// base is always the checkpoint), then transients by injection cycle, so
/// each worker walks the ladder upward and pays at most one reclone per
/// rung. Ties keep the original index for determinism.
fn schedule_key(mask: &FaultMask) -> u64 {
    match mask.model {
        FaultModel::Permanent { .. } => 0,
        FaultModel::Transient { cycle } => cycle.saturating_add(1),
    }
}

/// The indices of `masks` not marked in `skip`, in claim order:
/// rung-monotone when a ladder is in use, identity otherwise. Records are
/// per-mask deterministic and tagged with their mask index, so the order
/// changes locality only, never a record or an export.
pub(crate) fn claim_order(masks: &[FaultMask], skip: &[bool], laddered: bool) -> Vec<usize> {
    assert_eq!(skip.len(), masks.len(), "skip flags must cover every mask");
    let mut order: Vec<usize> = (0..masks.len()).filter(|&i| !skip[i]).collect();
    if laddered {
        order.sort_by_key(|&i| (schedule_key(&masks[i]), i));
    }
    order
}

// ----------------------------------------------------------------------
// lane-packed execution
// ----------------------------------------------------------------------

/// `campaign.lane_forks.<cause>`: why lane passes handed lanes back for
/// scalar re-runs, one per engine [`ForkCause`] in its order, then
/// `unfinished` for a lane handed back without an engine fork (not yet
/// armed at the halt, or any lane at the trap/watchdog escape). They sum
/// to `campaign.lane_forks`.
fn lane_fork_metrics() -> Vec<String> {
    let causes = ForkCause::ALL.iter().map(|c| c.name()).chain(["unfinished"]);
    causes.map(|c| format!("campaign.lane_forks.{c}")).collect()
}

/// Effective lane width: `0`/`1` disable packing, everything else clamps
/// to the lane mask width.
fn effective_lane_width(cc: &CampaignConfig) -> usize {
    if cc.lane_width < 2 {
        0
    } else {
        cc.lane_width.min(MAX_LANES)
    }
}

/// Can this mask ride in a lane pass? Packing requires a single-bit
/// transient on a structure whose corruption stays in the data plane
/// until the divergence monitor catches it, and a run with no per-run
/// observational state (taint shadows, flight timelines) that the shared
/// golden pass could not keep per-lane.
fn lane_packable_mask(mask: &FaultMask, cc: &CampaignConfig) -> bool {
    effective_lane_width(cc) >= 2
        && mask.bits.len() == 1
        && matches!(mask.model, FaultModel::Transient { .. })
        && !cc.telemetry.taint
        && cc.telemetry.flight_capacity == 0
        && System::lane_packable(mask.target)
}

/// One claimable work item of a campaign drive: an ordinary scalar run,
/// or a lane pass packing up to [`MAX_LANES`] masks that share a target
/// and a ladder segment into one golden execution.
enum Unit {
    Scalar(usize),
    Pass(Vec<usize>),
}

impl Unit {
    fn first(&self) -> usize {
        match self {
            Unit::Scalar(i) => *i,
            Unit::Pass(v) => v[0],
        }
    }
}

/// Rungs whose segments group lane packs: a pack shares one of the
/// segments of this many rungs placed over the campaign's ladder,
/// however many rungs the ladder holds. Grouping by the 33 segments of
/// the 32-rung ladder instead cut the mean pack from 4.2 to 2.4 lanes.
const PACK_RUNGS: usize = FROZEN_RUNGS;

/// Partition the claimable masks into scheduling units. Eligible masks
/// are grouped by (target, segment of [`PACK_RUNGS`] placed rungs) and
/// chunked to the lane width; everything else stays scalar. A pass
/// starts from the rung below its earliest injection and crosses every
/// ladder rung above it. Unit order is rung-monotone so each worker
/// still moves between rungs at most once per rung.
fn build_units(
    masks: &[FaultMask],
    order: &[usize],
    ladder: Option<&Ladder>,
    cc: &CampaignConfig,
) -> Vec<Unit> {
    let width = effective_lane_width(cc);
    let packing = ladder.map(|l| l.subset(PACK_RUNGS));
    let mut units: Vec<Unit> = Vec::new();
    let mut groups: Vec<((Target, usize), Vec<usize>)> = Vec::new();
    for &i in order {
        let m = &masks[i];
        if width == 0 || !lane_packable_mask(m, cc) {
            units.push(Unit::Scalar(i));
            continue;
        }
        let FaultModel::Transient { cycle } = m.model else { unreachable!("packable ⇒ transient") };
        let seg = packing.as_ref().map_or(0, |l| l.partition_at(cycle));
        match groups.iter_mut().find(|(k, _)| *k == (m.target, seg)) {
            Some((_, v)) => v.push(i),
            None => groups.push(((m.target, seg), vec![i])),
        }
    }
    if groups.is_empty() {
        return units;
    }
    for (_, v) in groups {
        for chunk in v.chunks(width) {
            if chunk.len() >= 2 {
                units.push(Unit::Pass(chunk.to_vec()));
            } else {
                units.push(Unit::Scalar(chunk[0]));
            }
        }
    }
    units.sort_by_key(|u| (schedule_key(&masks[u.first()]), u.first()));
    units
}

/// A [`RunRecord`] retired inside a lane pass: always `Masked` (anything
/// that could have produced output divergence, a trap or a timeout forks
/// to a scalar run first), differing only in which shortcut fired.
fn lane_record(
    cc: &CampaignConfig,
    cycles: u64,
    early: bool,
    converged: bool,
    diverged: bool,
) -> RunRecord {
    RunRecord {
        effect: FaultEffect::Masked,
        hvf: cc.collect_hvf.then_some(if diverged { HvfEffect::Corruption } else { HvfEffect::Masked }),
        trap: None,
        early_terminated: early,
        converged,
        cycles,
        forensics: None,
        attribution: None,
    }
}

/// Per-lane bookkeeping of one pass.
struct LaneRun {
    /// Mask index in the campaign order.
    idx: usize,
    inject: u64,
    /// Next early-termination fate-poll cycle (mirrors the scalar run's
    /// `inject + 256`, then `+1024` cadence, so a lane retired by the
    /// poll reports the exact cycle count the scalar run would).
    check_at: u64,
}

/// A lane a pass hands back for a scalar re-run, with the engine's
/// [`ForkCause`], or `None` when it hands the lane back without an engine
/// fork (`unfinished`).
type HandBack = (usize, Option<ForkCause>);

/// Execute one lane pass: run the shared golden control flow once from
/// the pack's base rung, arming each mask as a lane at its injection
/// cycle. Lanes retire in place through the same shortcuts as scalar runs
/// (arm-time early termination, fate-poll early termination, rung
/// convergence, halt) with identical records; lanes whose divergence
/// reaches beyond the data plane fork out and are returned for ordinary
/// scalar re-runs. Pushes `(mask index, record)` pairs for every lane
/// retired in-pass onto `out`.
#[allow(clippy::too_many_arguments)]
fn run_lane_pass(
    golden: &Golden,
    ladder: Option<&Ladder>,
    masks: &[FaultMask],
    pack: &[usize],
    cc: &CampaignConfig,
    ctx: Option<&mut WorkerCtx<System>>,
    lane: &mut SpanLane,
    out: &mut Vec<(usize, RunRecord)>,
) -> Vec<HandBack> {
    debug_assert!((2..=MAX_LANES).contains(&pack.len()));
    let tel = &cc.telemetry;
    let target = masks[pack[0]].target;
    let inject_of = |i: usize| match masks[i].model {
        FaultModel::Transient { cycle } => cycle,
        FaultModel::Permanent { .. } => unreachable!("lane passes are transient-only"),
    };

    // Base selection: the scalar path's rung for the earliest injection,
    // which every pack member may start from.
    let first = pack.iter().map(|&i| inject_of(i)).min().expect("a pack holds lanes");
    let base = select_base(&golden.ckpt, golden.ckpt_cycle, ladder, Some(first));
    for &i in pack {
        record_prefix(&tel.registry, golden.ckpt_cycle, &base, Some(inject_of(i)));
    }
    let mut ahead = base.ahead;

    let mut owned: Option<Box<System>> = None;
    let sys: &mut System = acquire(&base, tel, ctx, &mut owned, lane);
    if cc.collect_hvf {
        sys.core.trace_mode = TraceMode::Check(golden.trace.clone());
    }
    let watchdog = golden.watchdog();
    // A cache lane's armed byte is a diff until it is read or overwritten.
    let cache_site = match target {
        Target::L1I => Some(StateDiff::L1i),
        Target::L1D => Some(StateDiff::L1d),
        Target::L2 => Some(StateDiff::L2),
        _ => None,
    };

    let mut lanes: Vec<LaneRun> = pack
        .iter()
        .map(|&i| {
            let inject = inject_of(i);
            LaneRun { idx: i, inject, check_at: inject + 256 }
        })
        .collect();
    let all = u64::MAX >> (MAX_LANES - lanes.len());
    // Lane masks of the pass: armed so far, and retired in-pass or handed
    // back. An armed lane that is not done rides the pass.
    let (mut armed, mut done) = (0u64, 0u64);
    let mut forked: Vec<HandBack> = Vec::new();
    let mut deferred = [0u64; Deferral::COUNT];

    sys.lane_begin();
    lane.enter(PhaseId::SimStepLane);
    let mut halted = false;
    loop {
        // Arm every lane due at `sys.cycle` — mirrors the scalar prefix
        // loop (`while cycle < inject { tick }` then flip), including the
        // immediate early termination of a flip landing in an invalid
        // entry.
        let now = sys.cycle;
        for (l, lr) in lanes.iter().enumerate().filter(|(_, lr)| lr.inject == now) {
            armed |= 1 << l;
            let fate = sys.lane_arm(l as u8, target, masks[lr.idx].bits[0]);
            if cc.early_termination && fate.is_masked_early() {
                done |= 1 << l;
                out.push((lr.idx, lane_record(cc, now - golden.ckpt_cycle, true, false, false)));
            }
        }
        if done == all {
            break;
        }
        let ev = sys.tick();
        // Divergence monitor first: a lane forked during this very tick
        // leaves the pass before any retirement below could misclaim it.
        // From here on every riding lane is live.
        let eng = sys.lane_engine().expect("pass engine armed");
        let left = armed & !done & !eng.live;
        done |= left;
        forked.extend(each_lane(left).map(|l| (lanes[l].idx, eng.fork_causes[l])));
        match ev {
            SysEvent::Halted => {
                halted = true;
                break;
            }
            SysEvent::Trapped(_) => {
                // The golden control flow never traps (the golden run
                // halted); defensively hand every straggler to scalar.
                break;
            }
            _ => {}
        }
        if sys.cycle >= watchdog {
            break;
        }
        // Ladder-rung crossing: merge golden segment marks (journal union
        // covers everything either side wrote), then retire every lane
        // whose diffs are provably dead — exactly the lanes whose scalar
        // run would pass the dirty-diff convergence check here.
        if let Some(rung) = ahead.first().filter(|r| r.cycle == sys.cycle) {
            ahead = &ahead[1..];
            sys.merge_dirty_marks(&rung.seg);
            if cc.convergence_exit {
                let eng = sys.lane_engine().expect("pass engine armed");
                let diffs = eng.diffs_live();
                let mut cand = 0u64;
                for li in each_lane(armed & !done) {
                    let fate = eng.fates[li];
                    let diff_site = if diffs & (1u64 << li) != 0 {
                        Some(eng.diff_site(li).expect("a live diff has a site"))
                    } else {
                        cache_site.filter(|_| fate == FaultFate::Pending)
                    };
                    // Scalar parity, check for check: a diverged commit
                    // trace, then the fate split — a dead fault with early
                    // termination on exits at the fate poll, which reports
                    // the shorter cycle count — then the lane's state.
                    let deferral = if cc.collect_hvf && eng.diverged & (1u64 << li) != 0 {
                        Deferral::Hvf
                    } else if cc.early_termination && fate.is_masked_early() {
                        Deferral::FateSplit
                    } else if let Some(site) = diff_site {
                        Deferral::State(site)
                    } else {
                        cand |= 1 << li;
                        continue;
                    };
                    deferred[deferral.index()] += 1;
                }
                if cand != 0 {
                    lane.enter(PhaseId::ConvergenceDiff);
                    let diff = sys.state_diff(RungView::new(&golden.ckpt, Some(&rung.state)));
                    lane.exit(PhaseId::ConvergenceDiff);
                    match diff {
                        None => {
                            done |= cand;
                            out.extend(each_lane(cand).map(|li| {
                                (lanes[li].idx, lane_record(cc, golden.exec_cycles, false, true, false))
                            }));
                        }
                        Some(s) => deferred[Deferral::State(s).index()] += cand.count_ones() as u64,
                    }
                }
            }
        }
        // Early-termination fate polls, on each lane's own scalar cadence.
        if cc.early_termination {
            let eng = sys.lane_engine().expect("pass engine armed");
            for li in each_lane(armed & !done) {
                let lr = &mut lanes[li];
                if sys.cycle < lr.check_at {
                    continue;
                }
                lr.check_at = sys.cycle + 1024;
                if eng.fates[li].is_masked_early()
                    && !(cc.collect_hvf && eng.diverged & (1u64 << li) != 0)
                {
                    done |= 1 << li;
                    out.push((
                        lr.idx,
                        lane_record(cc, sys.cycle - golden.ckpt_cycle, true, false, false),
                    ));
                }
            }
        }
    }
    lane.exit(PhaseId::SimStepLane);

    if halted {
        // Live lanes surviving to halt ran the golden execution to the
        // letter: identical console output (store-data diffs fork before
        // reaching memory), so the scalar classification is Masked, with
        // HVF Corruption exactly for lanes that committed a corrupt
        // result along the way.
        debug_assert_eq!(sys.bus.console, golden.output, "live lanes must replay golden output");
        let diverged = sys.lane_engine().expect("pass engine armed").diverged;
        let cycles = sys.cycle - golden.ckpt_cycle;
        out.extend(each_lane(armed & !done).map(|li| {
            (lanes[li].idx, lane_record(cc, cycles, false, false, diverged & (1u64 << li) != 0))
        }));
        done |= armed;
    }
    // Every unfinished lane re-runs scalar: one not yet armed at the halt,
    // or any lane at the trap/watchdog escape (defensive — golden
    // execution does neither).
    forked.extend(each_lane(all & !done).map(|li| (lanes[li].idx, None)));
    sys.lane_end();
    for (d, n) in Deferral::all().zip(deferred) {
        d.count(&tel.registry, n);
    }
    forked
}

/// Outcome of one incremental [`drive_masks`]/[`crate::dsa::drive_dsa_masks`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Runs completed (and handed to the sink) by this call.
    pub completed: usize,
    /// The cancel flag was observed: workers stopped claiming new runs
    /// before the pending set was drained.
    pub cancelled: bool,
}

/// The campaign's checkpoint ladder: up to `cc.ladder_rungs` of the rungs
/// the golden run froze, shared with it (no cycle is simulated), with
/// its build metrics published; `None` unless
/// [`CampaignConfig::uses_ladder`]. HVF and non-HVF campaigns share the
/// same rungs.
///
/// Split out of the campaign entry points so long-lived drivers (the
/// campaign service, journaled CLI runs) can take the ladder once and
/// reuse it across many incremental [`drive_masks`] calls.
pub fn build_campaign_ladder(golden: &Golden, cc: &CampaignConfig) -> Option<Ladder> {
    let ladder = build_timed(cc, |n| golden.ladder.subset(n))?;
    cc.telemetry.registry.publish("campaign.ladder_bytes", ladder.held_bytes());
    Some(ladder)
}

/// One worker's effect tallies and cycle samples since its last flush to
/// the drive's shared counters.
#[derive(Default)]
struct Batch {
    runs: u64,
    sdc: u64,
    crash: u64,
    early: u64,
    conv: u64,
    cycles: Vec<u64>,
}

/// The worker pool behind [`drive_masks`] and
/// [`crate::dsa::drive_dsa_masks`]. Workers claim `units` in order, each
/// with its own [`WorkerCtx`] and span lane (`<lane_prefix>-<w>`), and
/// hand every claimed unit to `run_unit`, which pushes the unit's
/// `(mask index, record)` pairs. The pool exports each record to `sink`,
/// tallies effects in 32-run batches, drives the progress line, honours
/// `cancel` between claims, and publishes the drive's totals under
/// `scope` (`campaign` or `dsa`) once every worker has joined.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_pool<U, S, F>(
    scope: &str,
    lane_prefix: &str,
    units: &[U],
    runs: u64,
    population: u64,
    cc: &CampaignConfig,
    cancel: Option<&AtomicBool>,
    sink: &(dyn Fn(usize, RunRecord) + Sync),
    run_unit: F,
) -> DriveOutcome
where
    U: Sync,
    S: RunState,
    F: Fn(&U, &mut WorkerCtx<S>, &mut SpanLane, &mut Vec<(usize, RunRecord)>) + Sync,
{
    let workers = if cc.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cc.workers
    };
    let workers = workers.min(units.len().max(1));
    let next = AtomicUsize::new(0);

    let tel = &cc.telemetry;
    let scope = Scope::new(scope);
    let done = AtomicU64::new(0);
    let sdc_n = AtomicU64::new(0);
    let crash_n = AtomicU64::new(0);
    let early_n = AtomicU64::new(0);
    let conv_n = AtomicU64::new(0);
    let cancelled = AtomicBool::new(false);
    let active = AtomicUsize::new(workers);
    let run_cycles = tel.registry.histogram(&scope.metric("run_cycles"));
    // Wakes the progress reporter the moment the last worker exits
    // (normal completion or cancellation), instead of letting it sleep
    // out a full interval after the workers are done.
    let finish_wake = (std::sync::Mutex::new(false), std::sync::Condvar::new());

    crossbeam::thread::scope(|s| {
        for w in 0..workers {
            let worker_runs = tel.registry.scoped_counter(&scope.indexed("worker", w), "runs");
            let next = &next;
            let (done, sdc_n, crash_n, early_n, conv_n) = (&done, &sdc_n, &crash_n, &early_n, &conv_n);
            let (cancelled, active) = (&cancelled, &active);
            let finish_wake = &finish_wake;
            let (run_cycles, run_unit) = (&run_cycles, &run_unit);
            s.spawn(move |_| {
                let mut ctx = WorkerCtx::new();
                let mut lane = tel.spans.lane(&format!("{lane_prefix}-{w}"));
                // Shared-counter traffic is batched: the effect tallies
                // and cycle samples accumulate locally and flush every
                // BATCH runs (plus once at exit). Only `done` — which
                // drives progress — bumps per run.
                const BATCH: u64 = 32;
                let mut b = Batch::default();
                let flush = |b: &mut Batch| {
                    worker_runs.add(b.runs);
                    sdc_n.fetch_add(b.sdc, Ordering::Relaxed);
                    crash_n.fetch_add(b.crash, Ordering::Relaxed);
                    early_n.fetch_add(b.early, Ordering::Relaxed);
                    conv_n.fetch_add(b.conv, Ordering::Relaxed);
                    if let Some(h) = run_cycles {
                        b.cycles.drain(..).for_each(|c| h.record(c));
                    }
                    *b = Batch { cycles: std::mem::take(&mut b.cycles), ..Batch::default() };
                };
                let mut retired: Vec<(usize, RunRecord)> = Vec::new();
                loop {
                    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                        cancelled.store(true, Ordering::Relaxed);
                        break;
                    }
                    // The claim itself is spanned only when it succeeds: a
                    // drained-schedule probe is cancelled, so Schedule call
                    // counts equal claimed units at any worker count.
                    lane.enter(PhaseId::Schedule);
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= units.len() {
                        lane.cancel(PhaseId::Schedule);
                        break;
                    }
                    lane.exit(PhaseId::Schedule);
                    run_unit(&units[k], &mut ctx, &mut lane, &mut retired);
                    for (i, rec) in retired.drain(..) {
                        b.runs += 1;
                        match rec.effect {
                            FaultEffect::Sdc => b.sdc += 1,
                            FaultEffect::Crash => b.crash += 1,
                            FaultEffect::Masked => {}
                        }
                        b.early += rec.early_terminated as u64;
                        b.conv += rec.converged as u64;
                        if run_cycles.is_some() {
                            b.cycles.push(rec.cycles);
                        }
                        lane.enter(PhaseId::ExportRecord);
                        sink(i, rec);
                        lane.exit(PhaseId::ExportRecord);
                        // Progress rate/ETA counts retired *runs*, not
                        // units: a 64-wide lane pass advances the meter by
                        // up to 64 the moment its lanes land.
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    if b.runs >= BATCH {
                        flush(&mut b);
                    }
                }
                if b.runs > 0 {
                    flush(&mut b);
                }
                // Last worker out (normal drain or cancellation) wakes
                // the progress reporter for its final line.
                if active.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let (lock, cvar) = finish_wake;
                    *lock.lock().unwrap() = true;
                    cvar.notify_all();
                }
            });
        }
        if tel.progress_interval_ms > 0 {
            let (done, sdc_n, crash_n, early_n) = (&done, &sdc_n, &crash_n, &early_n);
            let finish_wake = &finish_wake;
            let interval = std::time::Duration::from_millis(tel.progress_interval_ms);
            let scope = &scope;
            s.spawn(move |_| {
                let meter = ProgressMeter::new(scope.as_str(), runs);
                let (lock, cvar) = finish_wake;
                let mut finished = lock.lock().unwrap();
                loop {
                    let d = done.load(Ordering::Relaxed);
                    let margin = error_margin(d.max(1) as usize, population, CONFIDENCE);
                    eprintln!(
                        "{}",
                        meter.line(
                            d,
                            sdc_n.load(Ordering::Relaxed),
                            crash_n.load(Ordering::Relaxed),
                            early_n.load(Ordering::Relaxed),
                            margin
                        )
                    );
                    // `finished` covers both normal completion and a
                    // cancelled drive whose workers have all exited.
                    if d >= runs || *finished {
                        break;
                    }
                    // Interval tick, cut short by the workers' notify
                    // (checked under the lock, so the wake can't be lost).
                    finished = cvar.wait_timeout(finished, interval).unwrap().0;
                }
            });
        }
    })
    .expect("campaign worker panicked");

    // In-flight effect tallies were flushed at worker exit; the scope join
    // above means the atomics now hold this drive's totals.
    let completed = done.into_inner();
    let (sdc, crash) = (sdc_n.into_inner(), crash_n.into_inner());
    tel.registry.publish_scoped(&scope, "runs", completed);
    tel.registry.publish_scoped(&scope, "sdc", sdc);
    tel.registry.publish_scoped(&scope, "crash", crash);
    tel.registry.publish_scoped(&scope, "masked", completed - sdc - crash);
    tel.registry.publish_scoped(&scope, "early_terminated", early_n.into_inner());
    tel.registry.publish_scoped(&scope, "convergence_exits", conv_n.into_inner());

    DriveOutcome { completed: completed as usize, cancelled: cancelled.into_inner() }
}

/// Incrementally drive the subset of `masks` *not* marked in `skip`
/// through the worker pool, handing each finished [`RunRecord`] to `sink`
/// the moment it lands (in completion order, tagged with its mask index).
///
/// This is the resumable core that the one-shot wrappers and the campaign
/// service share. A journaling caller marks the indices already on disk
/// in `skip`, passes an optional `cancel` flag for graceful shutdown
/// (workers stop claiming new runs; in-flight runs still complete and
/// reach the sink), and rebuilds exports from the sink stream. Every
/// record is per-mask deterministic — independent of worker count, reset
/// mode, ladder and interruption points (the differential tests pin
/// this) — so any skip/resume partition reproduces the same record for a
/// given index.
#[allow(clippy::too_many_arguments)]
pub fn drive_masks(
    golden: &Golden,
    ladder: Option<&Ladder>,
    masks: &[FaultMask],
    cc: &CampaignConfig,
    population: u64,
    skip: &[bool],
    cancel: Option<&AtomicBool>,
    sink: &(dyn Fn(usize, RunRecord) + Sync),
) -> DriveOutcome {
    let order = claim_order(masks, skip, ladder.is_some());
    // Lane packing: eligible masks fold into shared-pass units; every
    // record stays per-mask deterministic, so unit shape only affects
    // cost, never results (the lane differential test pins this).
    let units = build_units(masks, &order, ladder, cc);
    let reg = &cc.telemetry.registry;
    // Registered up front, so drives where no run defers or no lane forks
    // export them too.
    let fork_metrics = lane_fork_metrics();
    Deferral::all().map(Deferral::metric).chain([DEFERRED_STATE]).for_each(|m| drop(reg.counter(m)));
    fork_metrics.iter().for_each(|m| drop(reg.counter(m)));
    let lane_occupancy = reg.histogram("campaign.lane_occupancy");
    let (lane_passes, lane_packed) = (AtomicU64::new(0), AtomicU64::new(0));
    let lane_forks: [AtomicU64; ForkCause::ALL.len() + 1] = Default::default();
    let dirty = cc.reset_mode == ResetMode::Dirty;
    let run_unit = |unit: &Unit,
                    ctx: &mut WorkerCtx<System>,
                    lane: &mut SpanLane,
                    retired: &mut Vec<(usize, RunRecord)>| match unit {
        Unit::Scalar(i) => {
            lane.begin_run(*i as u64);
            let rec = run_one_spanned(golden, ladder, &masks[*i], cc, dirty.then_some(ctx), lane);
            lane.end_run();
            retired.push((*i, rec));
        }
        Unit::Pass(pack) => {
            lane.begin_run(pack[0] as u64);
            let fk = run_lane_pass(
                golden,
                ladder,
                masks,
                pack,
                cc,
                dirty.then_some(&mut *ctx),
                lane,
                retired,
            );
            lane.end_run();
            lane_passes.fetch_add(1, Ordering::Relaxed);
            lane_packed.fetch_add(pack.len() as u64, Ordering::Relaxed);
            if let Some(h) = &lane_occupancy {
                h.record(pack.len() as u64);
            }
            // Forked lanes fall back to ordinary scalar runs — same mask,
            // same worker context, same record the pure scalar path would
            // produce.
            for (i, cause) in fk {
                lane_forks[cause.map_or(ForkCause::ALL.len(), |c| c as usize)]
                    .fetch_add(1, Ordering::Relaxed);
                lane.enter(PhaseId::LaneFork);
                lane.begin_run(i as u64);
                let c = dirty.then_some(&mut *ctx);
                let rec = run_one_spanned(golden, ladder, &masks[i], cc, c, lane);
                lane.end_run();
                lane.exit(PhaseId::LaneFork);
                retired.push((i, rec));
            }
        }
    };
    let runs = order.len() as u64;
    let outcome =
        drive_pool("campaign", "cpu-worker", &units, runs, population, cc, cancel, sink, run_unit);
    let scope = Scope::new("campaign");
    reg.publish_scoped(&scope, "lane_passes", lane_passes.into_inner());
    reg.publish_scoped(&scope, "lane_runs_packed", lane_packed.into_inner());
    let forks = lane_forks.map(AtomicU64::into_inner);
    reg.publish_scoped(&scope, "lane_forks", forks.iter().sum());
    for (m, n) in fork_metrics.iter().zip(forks) {
        reg.publish(m, n);
    }
    outcome
}

/// Run every mask through `drive` (a [`drive_masks`] or
/// [`crate::dsa::drive_dsa_masks`] call with nothing skipped) and return
/// the records in mask order.
pub(crate) fn collect_records(
    n: usize,
    drive: impl FnOnce(&[bool], &(dyn Fn(usize, RunRecord) + Sync)) -> DriveOutcome,
) -> Vec<RunRecord> {
    let slots: Vec<std::sync::Mutex<Option<RunRecord>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    drive(&vec![false; n], &|i, rec| {
        *slots[i].lock().unwrap() = Some(rec);
    });
    slots.into_iter().map(|slot| slot.into_inner().unwrap().expect("all masks executed")).collect()
}

/// Drive every one of `masks` on `ladder` and return the records in mask
/// order.
fn drive_all(
    golden: &Golden,
    ladder: Option<&Ladder>,
    masks: &[FaultMask],
    cc: &CampaignConfig,
    population: u64,
) -> Vec<RunRecord> {
    collect_records(masks.len(), |skip, sink| {
        drive_masks(golden, ladder, masks, cc, population, skip, None, sink)
    })
}

fn target_hash(t: Target) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_cpu::CoreConfig;
    use marvel_ir::{assemble, FuncBuilder, Module};
    use marvel_isa::{AluOp, Cond, Isa};

    fn bench_module() -> Module {
        let mut m = Module::new();
        let buf = m.global_zeroed("buf", 256, 8);
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let base = b.addr_of(buf);
        b.checkpoint();
        let i = b.li(0);
        let top = b.new_label();
        b.bind(top);
        let v = b.bin(AluOp::Mul, i, i);
        b.store_idx(marvel_isa::MemWidth::D, v, base, i);
        let i2 = b.bin(AluOp::Add, i, 1);
        b.assign(i, i2);
        b.br(Cond::Lt, i, 32, top);
        let j = b.li(0);
        let top2 = b.new_label();
        b.bind(top2);
        let v2 = b.load_idx(marvel_isa::MemWidth::D, false, base, j);
        b.out_byte(v2);
        let j2 = b.bin(AluOp::Add, j, 1);
        b.assign(j, j2);
        b.br(Cond::Lt, j, 32, top2);
        b.halt();
        m.define(f, b.build());
        m
    }

    fn golden_for(isa: Isa) -> Golden {
        let bin = assemble(&bench_module(), isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        Golden::prepare(sys, 3_000_000).unwrap()
    }

    #[test]
    fn fast_prep_matches_cycle_level_golden() {
        for isa in Isa::ALL {
            let bin = assemble(&bench_module(), isa).unwrap();
            let mk = || {
                let mut sys = System::new(CoreConfig::table2(isa));
                sys.load_binary(&bin);
                sys
            };
            let slow = Golden::prepare(mk(), 3_000_000).unwrap();
            let fast = Golden::prepare_fast(mk(), 3_000_000).unwrap();
            assert!(fast.ref_prepped && !slow.ref_prepped);
            assert_eq!(fast.ckpt_cycle, 0);
            // The committed architectural stream after the checkpoint is
            // identical: same output bytes, same commit trace record for
            // record — microarchitectural timing is all that may differ.
            assert_eq!(fast.output, slow.output, "{isa:?}");
            assert_eq!(fast.trace, slow.trace, "{isa:?}");
            assert!(fast.exec_cycles > 0);
        }
    }

    #[test]
    fn golden_prepares_and_checkpoint_is_before_halt() {
        let g = golden_for(Isa::RiscV);
        assert!(g.exec_cycles > 100);
        assert_eq!(g.output.len(), 32);
        assert!(!g.trace.is_empty());
    }

    #[test]
    fn small_campaign_classifies_all_runs() {
        let g = golden_for(Isa::RiscV);
        let cc = CampaignConfig {
            n_faults: 24,
            collect_hvf: true,
            workers: 4,
            ladder_rungs: 0,
            ..Default::default()
        };
        let res = run_campaign(&g, Target::PrfInt, &cc);
        assert_eq!(res.n(), 24);
        let total = res.avf() + res.frac(FaultEffect::Masked);
        assert!((total - 1.0).abs() < 1e-9);
        // HVF ≥ AVF by definition.
        assert!(res.hvf().unwrap() + 1e-9 >= res.avf());
        assert!(res.margin() > 0.0);
    }

    #[test]
    fn fp_prf_faults_always_masked() {
        // Integer workloads never read the FP register file.
        let g = golden_for(Isa::Arm);
        let cc = CampaignConfig { n_faults: 10, workers: 2, ladder_rungs: 0, ..Default::default() };
        let res = run_campaign(&g, Target::PrfFp, &cc);
        assert!((res.avf() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = golden_for(Isa::RiscV);
        let cc = CampaignConfig { n_faults: 12, workers: 3, ladder_rungs: 0, ..Default::default() };
        let r1 = run_campaign(&g, Target::L1D, &cc);
        let r2 = run_campaign(&g, Target::L1D, &cc);
        let e1: Vec<_> = r1.records.iter().map(|r| r.effect).collect();
        let e2: Vec<_> = r2.records.iter().map(|r| r.effect).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn reset_modes_produce_identical_records() {
        let g = golden_for(Isa::RiscV);
        let mk = |mode| CampaignConfig {
            n_faults: 16,
            collect_hvf: true,
            workers: 3,
            reset_mode: mode,
            ladder_rungs: 0,
            ..Default::default()
        };
        for target in [Target::PrfInt, Target::L1D] {
            let rc = run_campaign(&g, target, &mk(ResetMode::Clone));
            let rd = run_campaign(&g, target, &mk(ResetMode::Dirty));
            let key = |r: &RunRecord| (r.effect, r.hvf, r.trap, r.early_terminated, r.cycles);
            let kc: Vec<_> = rc.records.iter().map(key).collect();
            let kd: Vec<_> = rd.records.iter().map(key).collect();
            assert_eq!(kc, kd, "{target:?}");
        }
    }

    #[test]
    fn ladder_and_convergence_match_oracle() {
        // The checkpoint ladder + convergence exit are pure optimisations:
        // every record must be identical to the full-prefix oracle, for
        // both reset modes. `converged` itself is excluded — it marks
        // which runs took the shortcut.
        let g = golden_for(Isa::RiscV);
        let mk = |rungs, conv, mode| CampaignConfig {
            n_faults: 16,
            collect_hvf: true,
            workers: 3,
            reset_mode: mode,
            ladder_rungs: rungs,
            convergence_exit: conv,
            ..Default::default()
        };
        let key = |r: &RunRecord| (r.effect, r.hvf, r.trap, r.early_terminated, r.cycles);
        for target in [Target::PrfInt, Target::L1D] {
            let oracle = run_campaign(&g, target, &mk(0, false, ResetMode::Clone));
            let ko: Vec<_> = oracle.records.iter().map(key).collect();
            for mode in [ResetMode::Clone, ResetMode::Dirty] {
                let fast = run_campaign(&g, target, &mk(6, true, mode));
                let kf: Vec<_> = fast.records.iter().map(key).collect();
                assert_eq!(ko, kf, "{target:?} {mode:?}");
            }
        }
        // The ladder itself covers the injection window with ascending
        // rungs strictly inside it.
        let cycles = g.ladder.subset(6).cycles();
        assert!(!cycles.is_empty());
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        assert!(cycles.iter().all(|&c| c > g.ckpt_cycle && c < g.ckpt_cycle + g.exec_cycles));
    }

    #[test]
    fn permanent_campaign_runs() {
        let g = golden_for(Isa::RiscV);
        let cc = CampaignConfig {
            n_faults: 10,
            kind: FaultKind::Permanent,
            workers: 2,
            ladder_rungs: 0,
            ..Default::default()
        };
        let res = run_campaign(&g, Target::L1D, &cc);
        assert_eq!(res.n(), 10);
    }
}
