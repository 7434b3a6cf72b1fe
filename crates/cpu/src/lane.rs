//! Lane execution: pack up to 64 single-bit transient faults into one
//! golden pass.
//!
//! A lane pass executes the shared golden control flow once. Each packed
//! fault ("lane") is represented purely as an XOR *diff* against the
//! golden data flow: a 64-bit value whose set bits are where the lane's
//! value differs from golden. Diffs live in three tables — physical
//! registers, in-flight execute events (keyed by sequence number) and ROB
//! result fields — and propagate through ALU operations lane by lane:
//! every lane with an operand diff is evaluated on its own operands.
//!
//! The pass stays byte-identical to scalar runs by construction:
//!
//! * **Golden state is never mutated.** Lane faults are armed as diffs
//!   plus per-lane fate monitors; memory, caches, the store queue and the
//!   fetch stream all remain golden.
//! * **Fork on divergence.** The moment a lane's diff would reach control
//!   flow (branch condition, jump target), a memory address, store data,
//!   or a trap decision — or a cache lane's armed byte is read or written
//!   back — the lane is forked: dropped from `live`, with its
//!   [`ForkCause`], and re-run as an ordinary scalar injection. Forking is
//!   always safe; packing is only an optimisation for lanes whose
//!   divergence never escapes the data flow.
//! * **Fate bits force forks or retirement.** A cache fault that is read
//!   returns genuinely corrupt bytes the pass does not model — fork. A
//!   fault that is overwritten clean, or armed into an invalid line, can
//!   never diverge again — the lane retires in-pass with the exact record
//!   arithmetic the scalar engine would produce.
//!
//! The pass driver reads the engine as lane masks after every tick:
//! `live`, `fates` and `diverged`.

use crate::cache::FaultFate;
use crate::core::StateDiff;
use marvel_isa::{AluOp, Isa};

/// Hard upper bound on lanes per pass: one bit of a `u64` lane mask each.
pub const MAX_LANES: usize = 64;

/// The lanes set in `mask`, lowest first.
#[inline]
pub fn each_lane(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// Why the engine forked a lane out of the pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForkCause {
    /// The golden op trapped, or the lane's own evaluation traps.
    Trap,
    /// A diff on a `Jalr` target.
    Jump,
    /// The branch outcome flips.
    Branch,
    /// A diff on an effective address.
    Address,
    /// A diff on store data.
    StoreData,
    /// A read of a cache lane's armed byte.
    CacheRead,
    /// A dirty victim carrying a cache lane's armed byte is written back.
    CacheEvict,
}

impl ForkCause {
    /// Every cause, in declaration order.
    pub const ALL: [ForkCause; 7] = [
        ForkCause::Trap,
        ForkCause::Jump,
        ForkCause::Branch,
        ForkCause::Address,
        ForkCause::StoreData,
        ForkCause::CacheRead,
        ForkCause::CacheEvict,
    ];

    /// The cause's metric suffix, as in `campaign.lane_forks.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            ForkCause::Trap => "trap",
            ForkCause::Jump => "jump",
            ForkCause::Branch => "branch",
            ForkCause::Address => "address",
            ForkCause::StoreData => "store_data",
            ForkCause::CacheRead => "cache_read",
            ForkCause::CacheEvict => "cache_evict",
        }
    }
}

/// Result of lane ALU diff propagation: per-lane result diffs plus a mask
/// of lanes whose evaluation diverged in a way data flow cannot express
/// (an ISA that traps on divide-by-zero, where a lane's divisor diff
/// turns a well-defined golden division into a trap).
pub struct AluDiff {
    pub diff: [u64; 64],
    pub fork: u64,
}

/// Propagate lane diffs through one ALU operation, lane by lane.
///
/// `a`/`b` are the golden operands, `golden` the golden result, `da`/`db`
/// the per-lane operand diffs and `mask` the lanes that carry any operand
/// diff (lanes outside `mask` keep a zero result diff by construction:
/// golden operands produce the golden result). Each masked lane goes
/// through [`AluOp::eval`] on its own operands.
#[allow(clippy::too_many_arguments)]
pub fn alu_diff(
    op: AluOp,
    isa: Isa,
    a: u64,
    b: u64,
    golden: u64,
    da: &[u64; 64],
    db: &[u64; 64],
    mask: u64,
) -> AluDiff {
    let mut out = AluDiff { diff: [0; 64], fork: 0 };
    for l in each_lane(mask) {
        match op.eval(a ^ da[l], b ^ db[l], isa) {
            Some(r) => out.diff[l] = r ^ golden,
            None => out.fork |= 1 << l,
        }
    }
    out
}

/// Per-pass diff and fate state for the packed lanes. Owned by the core;
/// the caches carry their own thin fate monitors, which the core folds
/// in after every tick.
#[derive(Debug, Clone)]
pub struct LaneEngine {
    /// Bit `l` set: lane `l` is armed and still rides the pass (not
    /// forked).
    pub live: u64,
    /// Each lane's fault fate; the first transition away from `Pending`
    /// latches, mirroring the scalar armed-fate monitors.
    pub fates: [FaultFate; MAX_LANES],
    /// Lanes whose committed result stream diverged from the golden trace
    /// (a recorded commit carried a nonzero diff).
    pub diverged: u64,
    /// Why each forked lane left `live` (`None` while it rides the pass).
    pub fork_causes: [Option<ForkCause>; MAX_LANES],
    /// Per-physical-register lane diffs, flattened: `reg * 64 + lane`.
    /// `reg_nz[reg]` masks the lanes with a nonzero diff on that reg.
    reg_diffs: Vec<u64>,
    reg_nz: Vec<u64>,
    /// Per-register mask of lanes whose PRF fate monitor is still armed
    /// (Pending): the next read latches `Read`, the next write latches
    /// `Overwritten`, mirroring the scalar `PhysRegFile` armed monitor.
    prf_fate_mask: Vec<u64>,
    fp_base: usize,
    /// In-flight execute-event diffs, keyed by sequence number.
    event_diffs: Vec<(u64, Box<[u64; 64]>, u64)>,
    /// ROB result-field diffs, keyed by sequence number (alive from
    /// writeback — or in-place arm — until commit or flush).
    rob_diffs: Vec<(u64, Box<[u64; 64]>, u64)>,
    /// Pending deferred ROB flips: `(lane, slot, bit)`.
    rob_armed: Vec<(u8, u16, u8)>,
    isa: Isa,
}

impl LaneEngine {
    pub fn new(int_regs: usize, fp_regs: usize, isa: Isa) -> Self {
        let n = int_regs + fp_regs;
        LaneEngine {
            live: 0,
            fates: [FaultFate::Pending; MAX_LANES],
            diverged: 0,
            fork_causes: [None; MAX_LANES],
            reg_diffs: vec![0; n * 64],
            reg_nz: vec![0; n],
            prf_fate_mask: vec![0; n],
            fp_base: int_regs,
            event_diffs: Vec::new(),
            rob_diffs: Vec::new(),
            rob_armed: Vec::new(),
            isa,
        }
    }

    #[inline]
    fn reg_index(&self, fp: bool, reg: u16) -> usize {
        reg as usize + if fp { self.fp_base } else { 0 }
    }

    /// Arm a PRF lane: seed the diff bit and the per-register fate
    /// monitor.
    pub fn arm_prf(&mut self, lane: u8, fp: bool, reg: u16, bit: u8) {
        self.live |= 1 << lane;
        let ri = self.reg_index(fp, reg);
        self.reg_diffs[ri * 64 + lane as usize] = 1u64 << bit;
        self.reg_nz[ri] |= 1 << lane;
        self.prf_fate_mask[ri] |= 1 << lane;
    }

    /// A physical register was read through the operand path: lanes with
    /// an armed fate monitor on it latch `Read` (the scalar run consumed
    /// the flipped value here).
    pub fn note_reg_read(&mut self, fp: bool, reg: u16) {
        let ri = self.reg_index(fp, reg);
        let m = std::mem::take(&mut self.prf_fate_mask[ri]);
        self.note_fates(m, FaultFate::Read);
    }

    /// A physical register was written (writeback): still-armed fate
    /// monitors on it latch `Overwritten` (the flip died unobserved).
    pub fn note_reg_write(&mut self, fp: bool, reg: u16) {
        let ri = self.reg_index(fp, reg);
        let m = std::mem::take(&mut self.prf_fate_mask[ri]);
        self.note_fates(m, FaultFate::Overwritten);
    }

    /// Arm a cache lane (diffs never enter the data flow — the cache-side
    /// monitor forks the lane if the byte is ever read).
    pub fn arm_cache(&mut self, lane: u8) {
        self.live |= 1 << lane;
    }

    /// Arm a deferred ROB flip for a lane.
    pub fn arm_rob_deferred(&mut self, lane: u8, slot: u16, bit: u8) {
        self.live |= 1 << lane;
        self.rob_armed.push((lane, slot, bit));
    }

    /// Arm an in-place ROB corruption: the slot held a `Done` entry with
    /// sequence number `seq`; the lane's fate latches `Read` immediately
    /// (the flip acted on live state) and the entry's result now carries
    /// the diff until commit.
    pub fn arm_rob_inplace(&mut self, lane: u8, seq: u64, bit: u8) {
        self.live |= 1 << lane;
        self.note_fates(1 << lane, FaultFate::Read);
        let d = self.rob_entry(seq);
        d.1[lane as usize] ^= 1u64 << bit;
        d.2 |= 1 << lane;
    }

    /// Latch `fate` for every lane in `lanes` whose fate is still
    /// `Pending` (the first transition wins).
    pub fn note_fates(&mut self, lanes: u64, fate: FaultFate) {
        for l in each_lane(lanes) {
            if self.fates[l] == FaultFate::Pending {
                self.fates[l] = fate;
            }
        }
    }

    /// Fork `lanes` out of the pass for `cause`: they leave `live`, and
    /// their residual diffs are ignored from then on.
    pub fn fork(&mut self, lanes: u64, cause: ForkCause) {
        for l in each_lane(lanes & self.live) {
            self.fork_causes[l] = Some(cause);
        }
        self.live &= !lanes;
    }

    /// Lanes (within `live`) carrying a nonzero diff on a register.
    #[inline]
    pub fn reg_mask(&self, fp: bool, reg: u16) -> u64 {
        self.reg_nz[self.reg_index(fp, reg)] & self.live
    }

    /// Read a register's diffs for use as an ALU operand. `PNONE`-style
    /// absent operands should pass `None`.
    pub fn operand_diffs(&self, fp: bool, reg: Option<u16>) -> ([u64; 64], u64) {
        match reg {
            Some(r) => {
                let ri = self.reg_index(fp, r);
                let diffs = self.reg_diffs[ri * 64..ri * 64 + 64].try_into();
                (diffs.expect("a register holds one diff per lane"), self.reg_mask(fp, r))
            }
            None => ([0; 64], 0),
        }
    }

    /// Record an execute event's result diffs (nonzero lanes only).
    pub fn push_event(&mut self, seq: u64, diff: [u64; 64], mask: u64) {
        let m = mask & self.live;
        if m != 0 {
            self.event_diffs.push((seq, Box::new(diff), m));
        }
    }

    fn rob_entry(&mut self, seq: u64) -> &mut (u64, Box<[u64; 64]>, u64) {
        if let Some(i) = self.rob_diffs.iter().position(|e| e.0 == seq) {
            &mut self.rob_diffs[i]
        } else {
            self.rob_diffs.push((seq, Box::new([0; 64]), 0));
            self.rob_diffs.last_mut().unwrap()
        }
    }

    /// Writeback of `seq` into ROB slot `slot` with destination `pdst`:
    /// moves the event diff into the ROB entry, fires any deferred ROB
    /// flips armed on the slot, and replaces the destination register's
    /// diffs (a diff-free writeback washes stale diffs away, exactly like
    /// the scalar overwrite). `pdst == None` models `PNONE`.
    pub fn writeback(&mut self, seq: u64, slot: u16, pdst: Option<u16>, fp: bool) {
        let (mut diff, mut mask) = match self.event_diffs.iter().position(|e| e.0 == seq) {
            Some(i) => {
                let (_, d, m) = self.event_diffs.swap_remove(i);
                (*d, m & self.live)
            }
            None => ([0; 64], 0),
        };
        // Deferred ROB flips on this slot fire now, after the event's
        // value lands and before the PRF write — scalar order.
        let mut i = 0;
        while i < self.rob_armed.len() {
            let (lane, s, bit) = self.rob_armed[i];
            if s == slot {
                self.rob_armed.swap_remove(i);
                if self.live & (1 << lane) != 0 {
                    diff[lane as usize] ^= 1u64 << bit;
                    mask |= 1 << lane;
                    self.note_fates(1 << lane, FaultFate::Read);
                }
            } else {
                i += 1;
            }
        }
        mask &= self.live;
        if mask != 0 {
            let e = self.rob_entry(seq);
            *e.1 = diff;
            e.2 = mask;
        }
        if let Some(p) = pdst {
            let ri = self.reg_index(fp, p);
            let old = self.reg_nz[ri];
            if old != 0 || mask != 0 {
                let base = ri * 64;
                for (l, d) in diff.iter().enumerate() {
                    self.reg_diffs[base + l] = if mask & (1 << l) != 0 { *d } else { 0 };
                }
                self.reg_nz[ri] = mask;
            }
        }
    }

    /// Commit of `seq`: the ROB entry dies. If the commit was recorded in
    /// the golden trace with a result field (`records_result`), any live
    /// lane's diff on the entry is a committed-stream divergence.
    pub fn commit(&mut self, seq: u64, records_result: bool) {
        if let Some(i) = self.rob_diffs.iter().position(|e| e.0 == seq) {
            let (_, _, mask) = self.rob_diffs.swap_remove(i);
            if records_result {
                self.diverged |= mask & self.live;
            }
        }
    }

    /// Pipeline flush: every in-flight diff dies (events and ROB
    /// entries); register diffs and deferred ROB arms persist, exactly
    /// like the scalar state under `flush_to`.
    pub fn flush(&mut self) {
        self.event_diffs.clear();
        self.rob_diffs.clear();
    }

    /// Propagate diffs through one ALU op; forks the lanes whose own
    /// evaluation traps and returns the result diffs with the mask of
    /// lanes whose diff is nonzero.
    #[allow(clippy::too_many_arguments)]
    pub fn alu(
        &mut self,
        op: AluOp,
        a: u64,
        b: u64,
        golden: u64,
        da: &[u64; 64],
        dam: u64,
        db: &[u64; 64],
        dbm: u64,
    ) -> ([u64; 64], u64) {
        let mask = (dam | dbm) & self.live;
        let r = alu_diff(op, self.isa, a, b, golden, da, db, mask);
        self.fork(r.fork, ForkCause::Trap);
        let nz = each_lane(mask & self.live).filter(|&l| r.diff[l] != 0).fold(0, |m, l| m | 1 << l);
        (r.diff, nz)
    }

    /// Mask of live lanes that still hold any diff or un-fired arm
    /// anywhere (registers, in-flight events, ROB entries, deferred ROB
    /// flips). A lane absent from this mask has fully re-converged with
    /// golden data flow.
    pub fn diffs_live(&self) -> u64 {
        let mut m = 0u64;
        for &nz in &self.reg_nz {
            m |= nz;
        }
        for &(_, _, em) in &self.event_diffs {
            m |= em;
        }
        for &(_, _, rm) in &self.rob_diffs {
            m |= rm;
        }
        for &(lane, _, _) in &self.rob_armed {
            m |= 1 << lane;
        }
        m & self.live
    }

    /// Where lane `l`'s diff lives, checked as [`diffs_live`](Self::diffs_live)
    /// gathers it: a register (`Prf`), an in-flight result (`Pipeline`) or
    /// a ROB entry or deferred ROB flip (`Rob`). `None` when the lane holds
    /// no diff.
    pub fn diff_site(&self, l: usize) -> Option<StateDiff> {
        let bit = 1u64 << l;
        if self.reg_nz.iter().any(|&nz| nz & bit != 0) {
            Some(StateDiff::Prf)
        } else if self.event_diffs.iter().any(|&(_, _, m)| m & bit != 0) {
            Some(StateDiff::Pipeline)
        } else if self.rob_diffs.iter().any(|&(_, _, m)| m & bit != 0)
            || self.rob_armed.iter().any(|&(lane, _, _)| lane as usize == l)
        {
            Some(StateDiff::Rob)
        } else {
            None
        }
    }
}
