//! The checkpoint ladder, shared by CPU and DSA campaigns: evenly spaced
//! snapshots of the fault-free run that let transient injection runs skip
//! the fault-free prefix below their injection cycle, and serve as the
//! comparison points of the dirty-diff convergence exit.
//!
//! A rung is a snapshot of a [`RunState`] — a [`System`] or a
//! [`DsaHarness`](crate::dsa::DsaHarness) — so both targets share one
//! ladder type, one way to freeze it and one base selection. What differs
//! per target is a trait item, not a branch here: the rung rule, the
//! metric names and the CPU's golden-segment dirty marks.

use crate::campaign::CampaignConfig;
use marvel_soc::{SysDirtyMarks, SysEvent, System};
use marvel_telemetry::{PhaseId, Registry, Scope};

/// Run state a campaign worker keeps alive across runs and a ladder
/// freezes: the CPU [`System`] or the accelerator
/// [`DsaHarness`](crate::dsa::DsaHarness). Both rewind to the pristine
/// base they were cloned from through `reset_from`. Public only so
/// [`Ladder`] may name it; the module is private, so nothing outside the
/// crate can implement or call it.
pub trait RunState: Clone {
    /// Metric scope of the target's campaign counters.
    const SCOPE: &'static str;
    /// Histograms a dirty reset records its wall time and bytes into.
    const RESET_NS: &'static str;
    const RESET_BYTES: &'static str;
    /// Histogram a context-less run records its deep-clone time into.
    const RESTORE_NS: Option<&'static str> = None;
    /// Histograms of the prefix a run simulates from its base to the
    /// injection, and of the prefix its base let it skip.
    const PREFIX_CYCLES: &'static str;
    const PREFIX_SKIPPED: &'static str;
    /// The rung rule: may a rung frozen at exactly the injection cycle
    /// start the run? A CPU rung is the state before that cycle's tick,
    /// where the flip lands, so yes; a DSA rung is frozen after its
    /// cycle's step, past the top of the cycle where the fault applies.
    const RUNG_AT_INJECTION: bool;
    /// What a rung keeps of the golden segment since the previous rung,
    /// for a run to merge at the rung crossing (CPU: dirty marks).
    type Marks: Clone + std::fmt::Debug;
    /// Undo every write since `pristine`; returns state bytes copied.
    fn reset_from(&mut self, pristine: &Self) -> u64;
    /// Arm the write journals of a fresh clone for later resets.
    fn track_writes(&mut self) {}
    /// Advance the fault-free run to `cycle`; `false` if it ended first.
    fn advance_to(&mut self, cycle: u64) -> bool;
    /// Drain the golden-segment marks accumulated since the last call.
    fn take_marks(&mut self) -> Self::Marks;
}

impl RunState for System {
    const SCOPE: &'static str = "campaign";
    const RESET_NS: &'static str = "campaign.reset_ns";
    const RESET_BYTES: &'static str = "campaign.reset_bytes";
    const RESTORE_NS: Option<&'static str> = Some("campaign.ckpt_restore_ns");
    const PREFIX_CYCLES: &'static str = "campaign.prefix_cycles";
    const PREFIX_SKIPPED: &'static str = "campaign.prefix_cycles_skipped";
    const RUNG_AT_INJECTION: bool = true;
    type Marks = SysDirtyMarks;
    fn reset_from(&mut self, pristine: &System) -> u64 {
        System::reset_from(self, pristine)
    }
    fn track_writes(&mut self) {
        self.enable_dirty_tracking();
    }
    fn advance_to(&mut self, cycle: u64) -> bool {
        while self.cycle < cycle {
            if let SysEvent::Halted | SysEvent::Trapped(_) = self.tick() {
                return false;
            }
        }
        true
    }
    fn take_marks(&mut self) -> SysDirtyMarks {
        self.take_dirty_marks()
    }
}

/// One ladder rung: the fault-free run state at `cycle`, plus the marks
/// of the golden segment `(previous rung, cycle]`.
#[derive(Debug, Clone)]
pub(crate) struct Rung<S: RunState> {
    pub(crate) cycle: u64,
    pub(crate) state: S,
    pub(crate) seg: S::Marks,
}

/// A checkpoint ladder shared read-only across campaign workers: rungs in
/// ascending cycle order. `Ladder` alone is the CPU ladder;
/// [`crate::dsa::DsaLadder`] is the DSA one.
#[derive(Debug, Clone)]
pub struct Ladder<S: RunState = System> {
    rungs: Vec<Rung<S>>,
}

impl<S: RunState> Default for Ladder<S> {
    fn default() -> Self {
        Ladder { rungs: Vec::new() }
    }
}

impl<S: RunState> Ladder<S> {
    /// Freeze up to `n_rungs` evenly spaced rungs strictly inside the
    /// window `(start, start + span)` by replaying the fault-free run that
    /// `run` positions at `start`. Rung cycles are deduplicated, so a
    /// short window yields fewer rungs (none when `span < 2`).
    pub(crate) fn build(n_rungs: usize, start: u64, span: u64, run: impl FnOnce() -> S) -> Ladder<S> {
        let n = n_rungs as u64;
        let mut cycles: Vec<u64> = (1..=n)
            .map(|i| start + i * span / (n + 1))
            .filter(|&c| c > start && c < start + span)
            .collect();
        cycles.dedup();
        let mut rungs = Vec::with_capacity(cycles.len());
        if cycles.is_empty() {
            return Ladder { rungs };
        }
        let mut s = Box::new(run());
        for c in cycles {
            // The fault-free run ending inside the window would contradict
            // its golden length; stop laddering defensively.
            if !s.advance_to(c) {
                break;
            }
            let seg = s.take_marks();
            rungs.push(Rung { cycle: c, state: (*s).clone(), seg });
        }
        Ladder { rungs }
    }

    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Rung cycles, ascending.
    pub fn cycles(&self) -> Vec<u64> {
        self.rungs.iter().map(|r| r.cycle).collect()
    }

    /// How many rungs a run injecting at `cycle` may start from, per the
    /// target's rung rule — also the index of the first rung it crosses.
    pub(crate) fn partition_at(&self, cycle: u64) -> usize {
        self.rungs.partition_point(|r| r.cycle < cycle || (S::RUNG_AT_INJECTION && r.cycle == cycle))
    }
}

/// Build a ladder of `cc.ladder_rungs` rungs with `build` under the
/// `LadderBuild` span and publish its size and build time under the
/// target's scope; `None` when the ladder is disabled.
pub(crate) fn build_timed<S: RunState>(
    cc: &CampaignConfig,
    build: impl FnOnce(usize) -> Ladder<S>,
) -> Option<Ladder<S>> {
    if cc.ladder_rungs == 0 {
        return None;
    }
    cc.telemetry.spans.time(PhaseId::LadderBuild, || {
        let t0 = std::time::Instant::now();
        let ladder = build(cc.ladder_rungs);
        let (reg, scope) = (&cc.telemetry.registry, Scope::new(S::SCOPE));
        reg.publish_scoped(&scope, "ladder_rungs", ladder.len() as u64);
        reg.publish_scoped(&scope, "ladder_build_ns", t0.elapsed().as_nanos() as u64);
        Some(ladder)
    })
}

/// Where a run (or a lane pass) injecting at `inject` starts: the deepest
/// rung it may start from, else the `pristine` base at `pristine_cycle`
/// (always for permanents, `inject: None`). Returns the base, its cycle
/// and the rungs above it, which the run crosses in order.
pub(crate) fn select_base<'a, S: RunState>(
    pristine: &'a S,
    pristine_cycle: u64,
    ladder: Option<&'a Ladder<S>>,
    inject: Option<u64>,
) -> (&'a S, u64, &'a [Rung<S>]) {
    let Some(l) = ladder else { return (pristine, pristine_cycle, &[]) };
    match inject.map_or(0, |c| l.partition_at(c)) {
        0 => (pristine, pristine_cycle, &l.rungs[..]),
        k => (&l.rungs[k - 1].state, l.rungs[k - 1].cycle, &l.rungs[k..]),
    }
}

/// Record one run's prefix histograms: the cycles its base skipped past
/// the pristine base, and the residual prefix it simulates up to its
/// injection (transients only).
pub(crate) fn record_prefix<S: RunState>(
    reg: &Registry,
    pristine_cycle: u64,
    base_cycle: u64,
    inject: Option<u64>,
) {
    if !reg.is_enabled() {
        return;
    }
    if let Some(h) = reg.histogram(S::PREFIX_SKIPPED) {
        h.record(base_cycle - pristine_cycle);
    }
    if let (Some(c), Some(h)) = (inject, reg.histogram(S::PREFIX_CYCLES)) {
        h.record(c.saturating_sub(base_cycle));
    }
}
