//! The checkpoint ladder, shared by CPU and DSA campaigns: snapshots of
//! the fault-free run that let transient injection runs skip the
//! fault-free prefix below their injection cycle, and serve as the
//! comparison points of the dirty-diff convergence exit.
//!
//! A rung is a snapshot of a [`RunState`] — a [`System`] or a
//! [`DsaHarness`](crate::dsa::DsaHarness) — so both targets share one
//! ladder type, one freeze, one placement rule and one base selection.
//! What differs per target is a trait item, not a branch here: the rung
//! count, the rung rule, the metric names, the snapshot form, how a
//! worker's state moves to a rung and the CPU's golden-segment dirty
//! marks. A CPU rung is a compact [`SysSnapshot`] that workers restore
//! and compare laid over the checkpoint; a DSA rung is a full harness.
//!
//! Rungs are frozen while the fault-free run itself runs ([`Freeze`]),
//! whose length is known only when it ends: snapshots every `P` cycles,
//! and whenever 4K+4 exist every other one is dropped (its segment marks
//! going to the next) and `P` doubles. 2K+2 to 4K+3 evenly spaced
//! snapshots survive, and the K nearest `i·span/(K+1)` become the rungs
//! ([`place`]), each within `P/2 ≤ span/(4K+4)` of that even position.
//! A campaign asking for fewer rungs gets a subset placed by the same
//! rule ([`Ladder::subset`]); one asking for more gets the K.

use crate::campaign::CampaignConfig;
use marvel_soc::{RungView, SysDirtyMarks, SysEvent, SysSnapshot, System};
use marvel_telemetry::{PhaseId, Registry, Scope};
use std::sync::Arc;

/// Rungs a fault-free run freezes (K) unless its target says otherwise
/// ([`RunState::RUNGS`]).
pub(crate) const FROZEN_RUNGS: usize = 8;

/// Run state a campaign worker keeps alive across runs and a ladder
/// freezes: the CPU [`System`] or the accelerator
/// [`DsaHarness`](crate::dsa::DsaHarness). Public only so
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
    /// injection, of the prefix its base let it skip, and of the rung it
    /// restored (0: the pristine base; k: rung k).
    const PREFIX_CYCLES: &'static str;
    const PREFIX_SKIPPED: &'static str;
    const RESTORE_RUNG: &'static str;
    /// The rung rule: may a rung frozen at exactly the injection cycle
    /// start the run? A CPU rung is the state before that cycle's tick,
    /// where the flip lands, so yes; a DSA rung is frozen after its
    /// cycle's step, past the top of the cycle where the fault applies.
    const RUNG_AT_INJECTION: bool;
    /// Rungs a fault-free run freezes (K): the most a campaign's ladder
    /// holds.
    const RUNGS: usize = FROZEN_RUNGS;
    /// What a rung keeps of the golden segment since the previous rung,
    /// for a run to merge at the rung crossing (CPU: dirty marks).
    type Marks: Clone + Default + std::fmt::Debug;
    /// What a freeze takes of a snapshot and a ladder keeps as a rung
    /// (CPU: a [`SysSnapshot`], without RAM or cache lines, laid over the
    /// checkpoint; DSA: the harness itself).
    type Frozen: std::fmt::Debug;
    /// Put this state — a clone of `ckpt` — at the rung `to` (`None`: at
    /// `ckpt`), undoing every write since it was last put at the rung
    /// `from`; returns state bytes copied.
    fn restore(&mut self, ckpt: &Self, from: Option<&Self::Frozen>, to: Option<&Self::Frozen>) -> u64;
    /// Arm the write journals of a fresh clone for later restores.
    fn track_writes(&mut self) {}
    /// Advance the fault-free run to `cycle`; `false` if it ended first.
    fn advance_to(&mut self, cycle: u64) -> bool;
    /// Drain the golden-segment marks accumulated since the last call.
    fn take_marks(&mut self) -> Self::Marks;
    /// Fold the marks of `other` into `into`.
    fn absorb(into: &mut Self::Marks, other: &Self::Marks);
    /// Snapshot the fault-free run; `since` is the union of every segment
    /// since it left its base.
    fn freeze(&mut self, since: &Self::Marks) -> Self::Frozen;
}

impl RunState for System {
    const SCOPE: &'static str = "campaign";
    const RESET_NS: &'static str = "campaign.reset_ns";
    const RESET_BYTES: &'static str = "campaign.reset_bytes";
    const RESTORE_NS: Option<&'static str> = Some("campaign.ckpt_restore_ns");
    const PREFIX_CYCLES: &'static str = "campaign.prefix_cycles";
    const PREFIX_SKIPPED: &'static str = "campaign.prefix_cycles_skipped";
    const RESTORE_RUNG: &'static str = "campaign.restore_rung";
    const RUNG_AT_INJECTION: bool = true;
    /// A compact rung holds a few hundred KiB of a 5.3 MiB system, so
    /// the CPU ladder affords four times the default.
    const RUNGS: usize = 4 * FROZEN_RUNGS;
    type Marks = SysDirtyMarks;
    type Frozen = SysSnapshot;
    fn restore(&mut self, ckpt: &System, from: Option<&SysSnapshot>, to: Option<&SysSnapshot>) -> u64 {
        self.reset_from(RungView::new(ckpt, to), from)
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
    fn absorb(into: &mut SysDirtyMarks, other: &SysDirtyMarks) {
        into.absorb(other);
    }
    fn freeze(&mut self, since: &SysDirtyMarks) -> SysSnapshot {
        self.snapshot(since)
    }
}

/// One ladder rung: the fault-free run's snapshot at `cycle` — shared by
/// every ladder handed out of the same freeze, or owned while a
/// [`Freeze`] holds it — plus the marks of the golden segment
/// `(previous rung, cycle]`.
#[derive(Debug, Clone)]
pub(crate) struct Rung<S: RunState, St = Arc<<S as RunState>::Frozen>> {
    pub(crate) cycle: u64,
    pub(crate) state: St,
    pub(crate) seg: S::Marks,
}

/// A checkpoint ladder shared read-only across campaign workers: rungs in
/// ascending cycle order, placed in the window `(start, start + span)` of
/// the fault-free run. `Ladder` alone is the CPU ladder;
/// [`crate::dsa::DsaLadder`] is the DSA one.
#[derive(Debug, Clone)]
pub struct Ladder<S: RunState = System> {
    rungs: Vec<Rung<S>>,
    start: u64,
    span: u64,
}

impl<S: RunState> Default for Ladder<S> {
    fn default() -> Self {
        Ladder { rungs: Vec::new(), start: 0, span: 0 }
    }
}

impl<S: RunState> Ladder<S> {
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

    /// Rung `k` (counted from 0): the golden run at `cycles()[k]` — on the
    /// CPU a compact snapshot to lay over the checkpoint ([`RungView`]),
    /// on the DSA a whole harness.
    ///
    /// # Panics
    /// Panics when `k >= len()`.
    pub fn rung(&self, k: usize) -> &S::Frozen {
        &self.rungs[k].state
    }

    /// `min(n, len)` of these rungs, sharing their states: the ones
    /// [`place`] picks, each taking over the segment marks of the rungs
    /// skipped below it.
    pub(crate) fn subset(&self, n: usize) -> Ladder<S> {
        let keep = place(&self.cycles(), self.start, self.span, n);
        Ladder { rungs: keep_merged(self.rungs.iter().cloned(), &keep), ..*self }
    }

    /// How many rungs a run injecting at `cycle` may start from, per the
    /// target's rung rule — also the index of the first rung it crosses.
    pub(crate) fn partition_at(&self, cycle: u64) -> usize {
        self.rungs.partition_point(|r| r.cycle < cycle || (S::RUNG_AT_INJECTION && r.cycle == cycle))
    }
}

impl Ladder<System> {
    /// Bytes the rungs hold ([`SysSnapshot::held_bytes`]).
    pub fn held_bytes(&self) -> u64 {
        self.rungs.iter().map(|r| r.state.held_bytes()).sum()
    }
}

/// The placement rule, for both targets and both steps (freezing and
/// handing out a subset): `min(n, cycles.len())` distinct indices into
/// `cycles` (ascending). The `i`-th is the cycle nearest
/// `start + i·span/(n+1)` (ties to the lower), moved up when an earlier
/// target took it and down when the targets above need the room. On
/// evenly spaced cycles at pitch `P`, more than `n` of them inside the
/// span, no pick moves, so each lies within `P/2` of its target.
pub(crate) fn place(cycles: &[u64], start: u64, span: u64, n: usize) -> Vec<usize> {
    let n = n.min(cycles.len());
    let mut keep: Vec<usize> = Vec::with_capacity(n);
    for i in 1..=n {
        let t = start + i as u64 * span / (n as u64 + 1);
        let j = cycles.partition_point(|&c| c < t);
        let near =
            if j == cycles.len() || (j > 0 && t - cycles[j - 1] <= cycles[j] - t) { j - 1 } else { j };
        let lowest = keep.last().map_or(0, |&k| k + 1);
        keep.push(near.clamp(lowest, cycles.len() - 1 - (n - i)));
    }
    keep
}

/// The rungs at the ascending indices `keep`, each with the marks of the
/// rungs skipped below it folded into its own; rungs above the last kept
/// one are dropped.
fn keep_merged<S: RunState, St>(
    rungs: impl IntoIterator<Item = Rung<S, St>>,
    keep: &[usize],
) -> Vec<Rung<S, St>> {
    let mut out = Vec::with_capacity(keep.len());
    let mut skipped: Option<S::Marks> = None;
    let mut want = keep.iter().copied().peekable();
    for (i, mut rung) in rungs.into_iter().enumerate() {
        let Some(&k) = want.peek() else { break };
        if i == k {
            if let Some(m) = skipped.take() {
                S::absorb(&mut rung.seg, &m);
            }
            out.push(rung);
            want.next();
        } else {
            S::absorb(skipped.get_or_insert_with(S::Marks::default), &rung.seg);
        }
    }
    out
}

/// The freeze of a fault-free run that left its base at `start`: the
/// caller advances the run to [`next_cycle`](Self::next_cycle) and hands
/// it to [`take`](Self::take) until the run ends, then
/// [`finish`](Self::finish)es the ladder.
pub(crate) struct Freeze<S: RunState> {
    start: u64,
    pitch: u64,
    /// Union of every segment since `start`.
    since: S::Marks,
    snaps: Vec<Rung<S, S::Frozen>>,
}

impl<S: RunState> Freeze<S> {
    /// A freeze snapshotting every `pitch` cycles until the pitch doubles.
    pub(crate) fn new(start: u64, pitch: u64) -> Freeze<S> {
        Freeze { start, pitch: pitch.max(1), since: S::Marks::default(), snaps: Vec::new() }
    }

    /// The cycle the next snapshot is due at.
    pub(crate) fn next_cycle(&self) -> u64 {
        self.start + self.pitch * (self.snaps.len() as u64 + 1)
    }

    /// Snapshot `s`, standing at [`next_cycle`](Self::next_cycle).
    pub(crate) fn take(&mut self, s: &mut S) {
        let cycle = self.next_cycle();
        let seg = s.take_marks();
        S::absorb(&mut self.since, &seg);
        let frozen = s.freeze(&self.since);
        self.snaps.push(Rung { cycle, state: frozen, seg });
        // At least 2K+2 survive a thinning, so the final pitch is at most
        // half an even segment, `span/(2K+2)`: no two rungs share a
        // snapshot, and every segment between rungs is within one pitch
        // of `span/(K+1)`. (With K+1 survivors, thinning at 2K+2,
        // sha/Arm's segments alternated between one and two pitches and
        // its mean residual prefix grew 10 %.)
        if self.snaps.len() == 4 * S::RUNGS + 4 {
            // Keep the multiples of the doubled pitch.
            let odd: Vec<usize> = (1..self.snaps.len()).step_by(2).collect();
            self.snaps = keep_merged(std::mem::take(&mut self.snaps), &odd);
            self.pitch *= 2;
        }
    }

    /// The ladder of a run that ended `span` cycles after `start`: the
    /// [`RunState::RUNGS`] snapshots [`place`] picks, kept as taken.
    pub(crate) fn finish(self, span: u64) -> Ladder<S> {
        let cycles: Vec<u64> = self.snaps.iter().map(|s| s.cycle).collect();
        let keep = place(&cycles, self.start, span, S::RUNGS);
        let rungs = keep_merged(self.snaps, &keep)
            .into_iter()
            .map(|r| Rung { cycle: r.cycle, state: Arc::new(r.state), seg: r.seg })
            .collect();
        Ladder { rungs, start: self.start, span }
    }
}

/// Build a ladder of `cc.ladder_rungs` rungs with `build` under the
/// `LadderBuild` span and publish its size and build time under the
/// target's scope; `None` unless [`CampaignConfig::uses_ladder`] — with
/// the ladder off, or for a permanent campaign, no run could use one.
pub(crate) fn build_timed<S: RunState>(
    cc: &CampaignConfig,
    build: impl FnOnce(usize) -> Ladder<S>,
) -> Option<Ladder<S>> {
    if !cc.uses_ladder() {
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

/// Where a run (or a lane pass) starts: the rung laid over the pristine
/// checkpoint (`None`: the checkpoint itself) and its cycle, which rung
/// it is (0: the checkpoint; k: rung k, counted from 1), and the rungs
/// above it, which the run crosses in order.
pub(crate) struct Base<'a, S: RunState> {
    pub(crate) ckpt: &'a S,
    pub(crate) laid: Option<&'a Arc<S::Frozen>>,
    pub(crate) cycle: u64,
    pub(crate) rung: usize,
    pub(crate) ahead: &'a [Rung<S>],
}

/// Where a run injecting at `inject` starts: the deepest rung it may
/// start from, else the pristine checkpoint `ckpt` at `ckpt_cycle`
/// (always for permanents, `inject: None`).
pub(crate) fn select_base<'a, S: RunState>(
    ckpt: &'a S,
    ckpt_cycle: u64,
    ladder: Option<&'a Ladder<S>>,
    inject: Option<u64>,
) -> Base<'a, S> {
    let Some(l) = ladder else {
        return Base { ckpt, laid: None, cycle: ckpt_cycle, rung: 0, ahead: &[] };
    };
    match inject.map_or(0, |c| l.partition_at(c)) {
        0 => Base { ckpt, laid: None, cycle: ckpt_cycle, rung: 0, ahead: &l.rungs[..] },
        k => {
            let r = &l.rungs[k - 1];
            Base { ckpt, laid: Some(&r.state), cycle: r.cycle, rung: k, ahead: &l.rungs[k..] }
        }
    }
}

/// Record one run's base histograms: the rung it restored, the cycles
/// its base skipped past the pristine base, and the residual prefix it
/// simulates up to its injection (transients only).
pub(crate) fn record_prefix<S: RunState>(
    reg: &Registry,
    pristine_cycle: u64,
    base: &Base<'_, S>,
    inject: Option<u64>,
) {
    if !reg.is_enabled() {
        return;
    }
    if let Some(h) = reg.histogram(S::RESTORE_RUNG) {
        h.record(base.rung as u64);
    }
    if let Some(h) = reg.histogram(S::PREFIX_SKIPPED) {
        h.record(base.cycle - pristine_cycle);
    }
    if let (Some(c), Some(h)) = (inject, reg.histogram(S::PREFIX_CYCLES)) {
        h.record(c.saturating_sub(base.cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in run state for the freeze: a cycle counter whose marks
    /// are the cycle ranges `(lo, hi]` stepped through, so a rung's
    /// segment shows exactly which snapshots it absorbed.
    #[derive(Debug, Clone, Default)]
    struct Counter {
        cycle: u64,
        stepped: Vec<(u64, u64)>,
    }

    impl RunState for Counter {
        const SCOPE: &'static str = "test";
        const RESET_NS: &'static str = "test.reset_ns";
        const RESET_BYTES: &'static str = "test.reset_bytes";
        const PREFIX_CYCLES: &'static str = "test.prefix_cycles";
        const PREFIX_SKIPPED: &'static str = "test.prefix_cycles_skipped";
        const RESTORE_RUNG: &'static str = "test.restore_rung";
        const RUNG_AT_INJECTION: bool = true;
        type Marks = Vec<(u64, u64)>;
        type Frozen = Counter;
        fn restore(&mut self, ckpt: &Counter, _from: Option<&Counter>, to: Option<&Counter>) -> u64 {
            *self = to.unwrap_or(ckpt).clone();
            0
        }
        fn advance_to(&mut self, cycle: u64) -> bool {
            self.stepped.push((self.cycle, cycle));
            self.cycle = cycle;
            true
        }
        fn take_marks(&mut self) -> Vec<(u64, u64)> {
            std::mem::take(&mut self.stepped)
        }
        fn absorb(into: &mut Vec<(u64, u64)>, other: &Vec<(u64, u64)>) {
            into.extend_from_slice(other);
            into.sort_unstable();
        }
        fn freeze(&mut self, _since: &Vec<(u64, u64)>) -> Counter {
            self.clone()
        }
    }

    /// Freeze a run of `span` cycles from `start`, as a golden run does.
    fn freeze(start: u64, span: u64) -> (Ladder<Counter>, u64) {
        let mut run = Counter { cycle: start, stepped: Vec::new() };
        let mut f = Freeze::new(start, 1);
        while f.next_cycle() < start + span {
            run.advance_to(f.next_cycle());
            f.take(&mut run);
        }
        let pitch = f.pitch;
        (f.finish(span), pitch)
    }

    #[test]
    fn rungs_sit_within_half_the_final_pitch_of_even_spacing() {
        for span in (9..300).chain([1_000, 4_097, 148_409, 226_802]) {
            let start = 1_234;
            let (ladder, pitch) = freeze(start, span);
            let k = FROZEN_RUNGS as u64;
            assert_eq!(ladder.len(), FROZEN_RUNGS, "span {span}");
            for (i, c) in (1..=k).zip(ladder.cycles()) {
                let even = start + i * span / (k + 1);
                assert!(2 * c.abs_diff(even) <= pitch, "span {span}: rung {i} at {c}, even {even}");
                assert!(c > start && c < start + span, "span {span}: rung {i} outside the window");
                assert_eq!(ladder.rungs[i as usize - 1].state.cycle, c, "span {span}: rung state");
            }
        }
    }

    #[test]
    fn subsets_cap_at_the_frozen_rungs_and_keep_every_segment() {
        let (start, span) = (100, 5_000);
        let (ladder, _) = freeze(start, span);
        for n in 0..=2 * FROZEN_RUNGS {
            let sub = ladder.subset(n);
            assert_eq!(sub.len(), n.min(ladder.len()), "n={n}");
            // A rung's segment runs from the rung below it (or the start)
            // to its own cycle: no golden cycle in between goes unmarked.
            let mut below = start;
            for r in &sub.rungs {
                let mut at = below;
                for &(lo, hi) in &r.seg {
                    assert_eq!(lo, at, "n={n}: segment of rung {} has a gap", r.cycle);
                    at = hi;
                }
                assert_eq!(at, r.cycle, "n={n}: segment of rung {} stops short", r.cycle);
                assert!(Arc::ptr_eq(&r.state, &ladder.rungs[ladder.partition_at(r.cycle) - 1].state));
                below = r.cycle;
            }
        }
    }

    #[test]
    fn short_runs_freeze_fewer_rungs() {
        assert!(freeze(0, 0).0.is_empty());
        assert!(freeze(0, 1).0.is_empty());
        let (ladder, _) = freeze(0, 4);
        assert_eq!(ladder.cycles(), vec![1, 2, 3]);
    }
}
