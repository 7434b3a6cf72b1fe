//! The heterogeneous system: core + RAM + console + interrupt controller +
//! hosted accelerators, with a unified fault-injection surface and
//! clone-based checkpointing.

use crate::hosted::HostedAccel;
use crate::irq::{IrqController, IrqCtrlKind};
use crate::isr::build_isr;
use marvel_accel::{AccelSite, MemRef};
use marvel_cpu::{
    Bus, CacheSets, Core, CoreConfig, CoreDirtyMarks, DirtyMap, DirtyMarks, FaultFate, LaneEngine,
    RungLines, StateDiff, StepEvent, TraceMode,
};
use marvel_ir::memmap::{
    ACCEL_MMR_BASE, ACCEL_MMR_STRIDE, CONSOLE_ADDR, IRQ_CTRL_BASE, IRQ_CTRL_SIZE, IRQ_VECTOR, RAM_BASE,
    RAM_SIZE,
};
use marvel_ir::Binary;
use marvel_isa::Trap;

/// All fault-injection targets of the heterogeneous SoC.
///
/// CPU-side targets follow the paper's Section IV-E list; DSA-side targets
/// are the Table IV scratchpads, register banks and MMR blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Integer physical register file.
    PrfInt,
    /// Floating-point physical register file.
    PrfFp,
    /// L1 instruction cache data array.
    L1I,
    /// L1 data cache data array.
    L1D,
    /// L2 cache data array.
    L2,
    LoadQueue,
    StoreQueue,
    /// Reorder-buffer result fields.
    Rob,
    /// Speculative rename map.
    RenameMap,
    /// Scratchpad `mem` of accelerator `accel`.
    Spm {
        accel: usize,
        mem: usize,
    },
    /// Register bank `mem` of accelerator `accel`.
    RegBank {
        accel: usize,
        mem: usize,
    },
    /// MMR block of accelerator `accel`.
    Mmr {
        accel: usize,
    },
}

impl Target {
    /// CPU-side targets (no accelerator indices needed).
    pub const CPU_ALL: [Target; 9] = [
        Target::PrfInt,
        Target::PrfFp,
        Target::L1I,
        Target::L1D,
        Target::L2,
        Target::LoadQueue,
        Target::StoreQueue,
        Target::Rob,
        Target::RenameMap,
    ];

    pub fn name(&self) -> String {
        match self {
            Target::PrfInt => "PhysRegFile(Int)".into(),
            Target::PrfFp => "PhysRegFile(FP)".into(),
            Target::L1I => "L1I".into(),
            Target::L1D => "L1D".into(),
            Target::L2 => "L2".into(),
            Target::LoadQueue => "LoadQueue".into(),
            Target::StoreQueue => "StoreQueue".into(),
            Target::Rob => "ROB".into(),
            Target::RenameMap => "RenameMap".into(),
            Target::Spm { accel, mem } => format!("SPM[{accel}.{mem}]"),
            Target::RegBank { accel, mem } => format!("RegBank[{accel}.{mem}]"),
            Target::Mmr { accel } => format!("MMR[{accel}]"),
        }
    }

    /// The accelerator site an accelerator target names.
    ///
    /// # Panics
    /// Panics on a CPU-side target.
    pub fn accel_site(self) -> AccelSite {
        match self {
            Target::Spm { mem, .. } => AccelSite::Mem(MemRef::Spm(mem)),
            Target::RegBank { mem, .. } => AccelSite::Mem(MemRef::RegBank(mem)),
            Target::Mmr { .. } => AccelSite::Mmr,
            _ => panic!("{self:?} is not an accelerator target"),
        }
    }
}

/// Devices + memory, split from the core so `Core::tick(&mut bus)` can
/// borrow them while the core is borrowed mutably.
#[derive(Debug, Clone)]
pub struct SocBus {
    pub ram: Vec<u8>,
    pub console: Vec<u8>,
    pub irq_ctrl: IrqController,
    pub accels: Vec<HostedAccel>,
    /// marvel-taint shadow of `ram`, one byte of taint flags per data
    /// byte (empty = tracking off). Moves with cache line traffic and
    /// DMA transfers but never influences the data plane.
    pub ram_shadow: Vec<u8>,
    /// Dirty-page journal over `ram` (4 KiB pages) for the zero-copy
    /// campaign reset (`None` = tracking off). `write_line` marks pages;
    /// DMA ToRam drains, which write RAM through a raw slice, are folded
    /// in from the engines' watermarks by [`System::reset_from`].
    ram_journal: Option<Box<DirtyMap>>,
}

/// RAM dirty-page granularity (log2 of the 4 KiB page).
const RAM_PAGE_SHIFT: usize = 12;

impl SocBus {
    fn accel_reg(&self, addr: u64) -> Option<(usize, usize)> {
        if addr < ACCEL_MMR_BASE {
            return None;
        }
        let idx = ((addr - ACCEL_MMR_BASE) / ACCEL_MMR_STRIDE) as usize;
        if idx >= self.accels.len() {
            return None;
        }
        let off = (addr - ACCEL_MMR_BASE) % ACCEL_MMR_STRIDE;
        if !off.is_multiple_of(8) {
            return None;
        }
        Some((idx, (off / 8) as usize))
    }

    /// Advance all devices one cycle; posts accelerator IRQs.
    fn tick_devices(&mut self) {
        for (i, a) in self.accels.iter_mut().enumerate() {
            let shadow = (!self.ram_shadow.is_empty()).then_some(&mut self.ram_shadow[..]);
            a.tick(&mut self.ram, shadow);
            if std::mem::take(&mut a.irq_out) {
                self.irq_ctrl.post(i as u32 + 1);
            }
        }
    }
}

impl Bus for SocBus {
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> bool {
        if !self.is_cacheable(addr) || !self.is_cacheable(addr + buf.len() as u64 - 1) {
            return false;
        }
        let off = (addr - RAM_BASE) as usize;
        buf.copy_from_slice(&self.ram[off..off + buf.len()]);
        true
    }

    fn write_line(&mut self, addr: u64, data: &[u8]) -> bool {
        if !self.is_cacheable(addr) || !self.is_cacheable(addr + data.len() as u64 - 1) {
            return false;
        }
        let off = (addr - RAM_BASE) as usize;
        if let Some(j) = &mut self.ram_journal {
            j.mark(off >> RAM_PAGE_SHIFT);
            j.mark((off + data.len() - 1) >> RAM_PAGE_SHIFT);
        }
        self.ram[off..off + data.len()].copy_from_slice(data);
        true
    }

    fn device_read(&mut self, addr: u64, _size: u8) -> Option<u64> {
        if (IRQ_CTRL_BASE..IRQ_CTRL_BASE + IRQ_CTRL_SIZE).contains(&addr) {
            return self.irq_ctrl.mmio_read(addr - IRQ_CTRL_BASE);
        }
        if let Some((idx, reg)) = self.accel_reg(addr) {
            return self.accels[idx].accel.mmr.read(reg);
        }
        None
    }

    fn device_write(&mut self, addr: u64, _size: u8, val: u64) -> Option<()> {
        if addr == CONSOLE_ADDR {
            self.console.push(val as u8);
            return Some(());
        }
        if (IRQ_CTRL_BASE..IRQ_CTRL_BASE + IRQ_CTRL_SIZE).contains(&addr) {
            return self.irq_ctrl.mmio_write(addr - IRQ_CTRL_BASE, val);
        }
        if let Some((idx, reg)) = self.accel_reg(addr) {
            return self.accels[idx].accel.mmr.write(reg, val);
        }
        None
    }

    fn taint_read_line(&mut self, addr: u64, buf: &mut [u8]) {
        if self.ram_shadow.is_empty() || !self.is_cacheable(addr) {
            buf.fill(0);
            return;
        }
        let off = (addr - RAM_BASE) as usize;
        buf.copy_from_slice(&self.ram_shadow[off..off + buf.len()]);
    }

    fn taint_write_line(&mut self, addr: u64, data: &[u8]) {
        if self.ram_shadow.is_empty() || !self.is_cacheable(addr) {
            return;
        }
        let off = (addr - RAM_BASE) as usize;
        self.ram_shadow[off..off + data.len()].copy_from_slice(data);
    }

    fn is_cacheable(&self, addr: u64) -> bool {
        (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&addr)
    }

    fn is_device(&self, addr: u64) -> bool {
        addr == CONSOLE_ADDR
            || (IRQ_CTRL_BASE..IRQ_CTRL_BASE + IRQ_CTRL_SIZE).contains(&addr)
            || self.accel_reg(addr).is_some()
    }
}

/// Drained dirty marks of a whole system segment: which CPU structures and
/// RAM pages a stretch of execution touched. Captured per ladder rung while
/// building the golden checkpoint ladder, then merged into a faulty run's
/// live journals at each rung crossing so the convergence compare covers
/// locations the *golden* run wrote even if the fault suppressed the write.
#[derive(Debug, Clone, Default)]
pub struct SysDirtyMarks {
    core: CoreDirtyMarks,
    ram: DirtyMarks,
}

impl SysDirtyMarks {
    /// Fold `other` into this capture: the union of both segments.
    pub fn absorb(&mut self, other: &SysDirtyMarks) {
        self.core.absorb(&other.core);
        self.ram.absorb(&other.ram);
    }
}

/// A compact snapshot of a golden run, as the run's ladder freeze takes
/// it and a ladder keeps it as a rung: the [`System`] without its RAM,
/// its caches' line arrays and its commit trace, plus copies of the RAM
/// pages and cache sets written since the checkpoint the run started
/// from. A full clone copies the 4 MiB RAM and the 1.3 MiB of cache
/// lines; a run writes a small share of either. Workers restore and
/// compare against it laid over that checkpoint ([`RungView`]).
#[derive(Debug)]
pub struct SysSnapshot {
    sys: System,
    /// Copies of the L1I, L1D and L2 sets written since the checkpoint.
    sets: [CacheSets; 3],
    /// Indices of the copied pages, ascending, and their bytes back to back.
    pages: Vec<usize>,
    bytes: Vec<u8>,
}

impl SysSnapshot {
    /// Bytes the snapshot holds: its copied pages and cache sets, and the
    /// state of the system without RAM or cache lines.
    pub fn held_bytes(&self) -> u64 {
        let sets: u64 = self.sets.iter().map(CacheSets::held_bytes).sum();
        let pages = self.bytes.len() + self.pages.len() * std::mem::size_of::<usize>();
        sets + pages as u64 + self.sys.held_bytes()
    }
}

/// A ladder rung as workers restore and compare it: the checkpoint with
/// a compact snapshot of the golden run laid over it — the snapshot's
/// own state, RAM pages and cache sets in place of the checkpoint's — or,
/// without a snapshot, the checkpoint itself.
#[derive(Debug, Clone, Copy)]
pub struct RungView<'a> {
    ckpt: &'a System,
    rung: Option<&'a SysSnapshot>,
}

impl<'a> RungView<'a> {
    /// `rung` laid over `ckpt`, the checkpoint the snapshotted run
    /// started from; `None` is `ckpt` itself.
    pub fn new(ckpt: &'a System, rung: Option<&'a SysSnapshot>) -> Self {
        RungView { ckpt, rung }
    }

    /// Everything but RAM and cache lines.
    fn own(&self) -> &'a System {
        self.rung.map_or(self.ckpt, |r| &r.sys)
    }

    /// The bytes of RAM page `p`: the rung's copy when it holds one,
    /// else the checkpoint's.
    fn page(&self, p: usize) -> &'a [u8] {
        let (lo, hi) = page_range(p, self.ckpt.bus.ram.len());
        match self.rung.and_then(|r| r.pages.binary_search(&p).ok().map(|k| (r, k))) {
            // Every page before the last is whole, so copy k starts at k pages.
            Some((r, k)) => &r.bytes[k << RAM_PAGE_SHIFT..(k << RAM_PAGE_SHIFT) + hi - lo],
            None => &self.ckpt.bus.ram[lo..hi],
        }
    }

    fn lines(&self) -> [RungLines<'a>; 3] {
        self.ckpt.core.rung_lines(self.rung.map(|r| &r.sets))
    }
}

/// Byte range of RAM page `p` in a RAM of `len` bytes.
fn page_range(p: usize, len: usize) -> (usize, usize) {
    let lo = p << RAM_PAGE_SHIFT;
    (lo, (lo + (1 << RAM_PAGE_SHIFT)).min(len))
}

thread_local! {
    static TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cycles every [`System`] has simulated on the calling thread: a
/// deterministic count of simulation work, for guards that a setup step
/// simulates nothing (or exactly one golden run).
pub fn thread_ticks() -> u64 {
    TICKS.with(|t| t.get())
}

/// Outcome of [`System::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// `Halt` committed; console output captured.
    Halted { cycles: u64 },
    /// A trap reached commit (fault-effect class: Crash).
    Crashed { trap: Trap, cycles: u64 },
    /// The cycle budget expired (fault-effect class: Crash/hang).
    Timeout,
}

/// Events surfaced by [`System::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysEvent {
    Running,
    Halted,
    Trapped(Trap),
    Checkpoint,
    SwitchCpu,
}

/// The heterogeneous system under test. `Clone` is the checkpoint
/// mechanism: cloning captures the full architectural *and*
/// microarchitectural state, including warm caches — the paper's extended
/// gem5 checkpoint semantics.
#[derive(Debug, Clone)]
pub struct System {
    pub core: Core,
    pub bus: SocBus,
    pub cycle: u64,
    /// Cycle at which the `Checkpoint` marker committed (if seen).
    pub checkpoint_cycle: Option<u64>,
    /// Cycle at which the `SwitchCpu` marker committed (if seen).
    pub switch_cycle: Option<u64>,
    /// Traps surfaced by the run loop (commit-stage crashes).
    pub traps: u64,
    /// Lockstep differential oracle (`None` = off). Enabled with
    /// [`enable_lockstep`](Self::enable_lockstep); every committed
    /// micro-op is then replayed on the architectural reference model.
    pub lockstep: Option<Box<marvel_ref::Lockstep>>,
}

impl System {
    pub fn new(cfg: CoreConfig) -> Self {
        let kind = IrqCtrlKind::for_isa(cfg.isa);
        System {
            core: Core::new(cfg),
            bus: SocBus {
                ram: vec![0u8; RAM_SIZE as usize],
                console: Vec::new(),
                irq_ctrl: IrqController::new(kind),
                accels: Vec::new(),
                ram_shadow: Vec::new(),
                ram_journal: None,
            },
            cycle: 0,
            checkpoint_cycle: None,
            switch_cycle: None,
            traps: 0,
            lockstep: None,
        }
    }

    /// Load a program image and install the ISR stub; the core starts at
    /// the binary's entry.
    pub fn load_binary(&mut self, bin: &Binary) {
        assert_eq!(bin.isa, self.core.isa(), "binary ISA mismatch");
        let off = (bin.entry - RAM_BASE) as usize;
        self.bus.ram[off..off + bin.image.len()].copy_from_slice(&bin.image);
        let isr = build_isr(self.core.isa(), self.bus.irq_ctrl.kind);
        let voff = (IRQ_VECTOR - RAM_BASE) as usize;
        self.bus.ram[voff..voff + isr.len()].copy_from_slice(&isr);
        self.core.reset_to(bin.entry);
    }

    /// Attach a hosted accelerator; returns its index (MMR page
    /// `ACCEL_MMR_BASE + idx * ACCEL_MMR_STRIDE`, IRQ source `idx + 1`).
    pub fn add_accel(&mut self, a: HostedAccel) -> usize {
        self.bus.accels.push(a);
        self.bus.accels.len() - 1
    }

    /// Attach the lockstep differential oracle. Call after
    /// [`load_binary`](Self::load_binary) and before the first tick: the
    /// reference machine is seeded from the core's current architectural
    /// state and a copy of RAM.
    pub fn enable_lockstep(&mut self) {
        self.core.enable_commit_effects();
        let ls = marvel_ref::Lockstep::new(
            self.core.isa(),
            self.core.arch_pc(),
            &self.core.arch_regs(),
            self.bus.ram.clone(),
            self.core.cfg.l1i.line as u64,
        );
        self.lockstep = Some(Box::new(ls));
    }

    /// First O3-vs-reference divergence, when lockstep is enabled.
    pub fn lockstep_divergence(&self) -> Option<&marvel_ref::Divergence> {
        self.lockstep.as_deref().and_then(|ls| ls.divergence())
    }

    /// Micro-ops checked by the lockstep oracle so far.
    pub fn lockstep_checked(&self) -> u64 {
        self.lockstep.as_deref().map(|ls| ls.checked()).unwrap_or(0)
    }

    /// Turn on dirty-state journaling (CPU structures + RAM page journal)
    /// so [`reset_from`](Self::reset_from) can restore this system to its
    /// checkpoint by undoing only what a run touched. Call once on the
    /// per-worker reusable system, right after cloning the checkpoint.
    pub fn enable_dirty_tracking(&mut self) {
        self.core.enable_dirty_tracking();
        if self.bus.ram_journal.is_none() {
            let pages = self.bus.ram.len().div_ceil(1 << RAM_PAGE_SHIFT);
            self.bus.ram_journal = Some(Box::new(DirtyMap::new(pages)));
        }
    }

    /// Restore this system — a clone of `to`'s checkpoint — to the rung
    /// `to`, undoing journaled state (dirty RAM pages, dirty cache sets
    /// and registers) and copying small unjournaled structures wholesale;
    /// without dirty tracking, every page and set is restored. Returns
    /// state bytes copied — the zero-copy campaign's cost measure.
    ///
    /// `from` is the rung this system was last restored to (`None`: the
    /// checkpoint). When `to` lays a different rung, every location
    /// either rung holds is restored too — their pages, their sets and
    /// every register — and hosted accelerators, whose write watermarks
    /// cover only this system's own writes, are copied whole.
    ///
    /// Soundness relies on every RAM mutation being visible to the page
    /// journal: `write_line` marks pages directly, and DMA ToRam drains
    /// (raw-slice writes) are folded in here from each engine's watermark.
    pub fn reset_from(&mut self, to: RungView<'_>, from: Option<&SysSnapshot>) -> u64 {
        let moved = match (from, to.rung) {
            (Some(a), Some(b)) => !std::ptr::eq(a, b),
            (a, b) => a.is_some() != b.is_some(),
        };
        if moved {
            self.mark_rung(from);
            self.mark_rung(to.rung);
            self.bus.accels.iter_mut().for_each(|h| h.accel.mark_memories());
        }
        let own = to.own();
        let mut bytes = self.core.reset_from(&own.core, to.lines());
        self.fold_dma_watermarks();
        let ram_len = self.bus.ram.len();
        let pages = ram_len.div_ceil(1 << RAM_PAGE_SHIFT);
        let mut restore = |ram: &mut [u8], p: usize| {
            let (lo, hi) = page_range(p, ram_len);
            ram[lo..hi].copy_from_slice(to.page(p));
            bytes += (hi - lo) as u64;
        };
        match self.bus.ram_journal.as_mut() {
            Some(j) => j.drain(|p| restore(&mut self.bus.ram, p)),
            None => (0..pages).for_each(|p| restore(&mut self.bus.ram, p)),
        }
        self.bus.console.clone_from(&own.bus.console);
        bytes += own.bus.console.len() as u64;
        self.bus.irq_ctrl = own.bus.irq_ctrl.clone();
        for (h, p) in self.bus.accels.iter_mut().zip(&own.bus.accels) {
            bytes += h.reset_from(p);
        }
        // Per-run taint shadow: neither the checkpoint nor a rung carries one.
        if own.bus.ram_shadow.is_empty() {
            self.bus.ram_shadow.clear();
        } else {
            self.bus.ram_shadow.clone_from(&own.bus.ram_shadow);
        }
        self.cycle = own.cycle;
        self.checkpoint_cycle = own.checkpoint_cycle;
        self.switch_cycle = own.switch_cycle;
        self.traps = own.traps;
        self.lockstep.clone_from(&own.lockstep);
        bytes + 40 // SoC scalars + IRQ controller
    }

    /// Journal every location `rung` holds apart from its checkpoint
    /// (nothing but the registers for the checkpoint itself).
    fn mark_rung(&mut self, rung: Option<&SysSnapshot>) {
        self.core.mark_rung(rung.map(|r| &r.sets));
        if let (Some(j), Some(r)) = (&mut self.bus.ram_journal, rung) {
            r.pages.iter().for_each(|&p| j.mark(p));
        }
    }

    /// Bytes this system holds: RAM, console, taint shadow and the core.
    fn held_bytes(&self) -> u64 {
        let bus = self.bus.ram.len() + self.bus.console.len() + self.bus.ram_shadow.len();
        (bus + std::mem::size_of::<System>()) as u64 + self.core.held_bytes()
    }

    /// Fold each DMA engine's RAM-write watermark into the page journal so
    /// raw-slice DMA drains are visible to journal-driven reset/compare.
    /// Marking is idempotent; the watermarks stay armed until the next
    /// [`reset_from`](Self::reset_from).
    fn fold_dma_watermarks(&mut self) {
        if let Some(j) = &mut self.bus.ram_journal {
            for h in &self.bus.accels {
                if let Some((lo, hi)) = h.host.dma().ram_written_range() {
                    for p in (lo >> RAM_PAGE_SHIFT)..=((hi - 1) >> RAM_PAGE_SHIFT) {
                        j.mark(p);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // checkpoint-ladder support (segment dirty marks + convergence exit)
    // ------------------------------------------------------------------

    /// Drain the CPU and RAM dirty journals into a [`SysDirtyMarks`]
    /// segment record, leaving the journals clean. Used while building the
    /// checkpoint ladder: each rung captures what the golden run touched
    /// since the previous rung. Requires
    /// [`enable_dirty_tracking`](Self::enable_dirty_tracking).
    pub fn take_dirty_marks(&mut self) -> SysDirtyMarks {
        self.fold_dma_watermarks();
        SysDirtyMarks {
            core: self.core.take_dirty_marks(),
            ram: self.bus.ram_journal.as_mut().map(|j| j.take_marks()).unwrap_or_default(),
        }
    }

    /// Snapshot this system without copying its RAM, its cache lines or
    /// its commit trace (the snapshot records no trace). `written` must
    /// cover every RAM page and cache set written since the checkpoint
    /// the run started from: the union of the segments
    /// [`take_dirty_marks`](Self::take_dirty_marks) returned since then,
    /// which folds in DMA watermarks.
    pub fn snapshot(&mut self, written: &SysDirtyMarks) -> SysSnapshot {
        let ram = std::mem::take(&mut self.bus.ram);
        let trace = std::mem::take(&mut self.core.trace);
        let lines = self.core.take_cache_lines();
        let mut sys = self.clone();
        self.bus.ram = ram;
        self.core.trace = trace;
        self.core.put_cache_lines(lines);
        sys.core.trace_mode = TraceMode::Off;
        let sets = self.core.copy_cache_sets(&written.core);
        let len = self.bus.ram.len();
        let mut pages = Vec::new();
        written.ram.for_each(len.div_ceil(1 << RAM_PAGE_SHIFT), |p| pages.push(p));
        pages.sort_unstable();
        let mut bytes = Vec::new();
        for &p in &pages {
            let (lo, hi) = page_range(p, len);
            bytes.extend_from_slice(&self.bus.ram[lo..hi]);
        }
        SysSnapshot { sys, sets, pages, bytes }
    }

    /// Merge a golden segment's dirty marks into this system's live
    /// journals, so a subsequent [`state_diff`](Self::state_diff)
    /// also checks locations only the golden run wrote (a fault can
    /// *suppress* a golden store; comparing only the faulty run's dirt
    /// would miss that divergence). Over-marking is harmless.
    pub fn merge_dirty_marks(&mut self, m: &SysDirtyMarks) {
        self.core.merge_dirty_marks(&m.core);
        if let Some(j) = &mut self.bus.ram_journal {
            j.merge(&m.ram);
        }
    }

    /// Dirty-diff convergence check: `None` when this system's functional
    /// state equals `rung`'s (a golden-run snapshot at the same cycle, laid
    /// over its checkpoint), otherwise the first structure that differs
    /// ([`StateDiff`] order).
    ///
    /// Journaled structures (RAM pages, cache sets, physical registers)
    /// are compared only at dirty locations, each against the rung's copy
    /// when the rung holds one and the checkpoint's otherwise — sound as
    /// long as golden segment marks have been
    /// [`merge_dirty_marks`](Self::merge_dirty_marks)-ed in at every rung
    /// crossing since restore, so the union covers every location either
    /// run wrote. Without dirty tracking every location is compared.
    /// Unjournaled structures are compared wholesale. Observational state
    /// (statistics, armed fault fates, journals, taint shadows) is
    /// excluded: it never steers execution.
    pub fn state_diff(&mut self, rung: RungView<'_>) -> Option<StateDiff> {
        let own = rung.own();
        if self.cycle != own.cycle
            || self.checkpoint_cycle != own.checkpoint_cycle
            || self.switch_cycle != own.switch_cycle
            || self.traps != own.traps
        {
            return Some(StateDiff::Pipeline);
        }
        if self.bus.console != own.bus.console
            || !self.bus.irq_ctrl.state_eq(&own.bus.irq_ctrl)
            || !self.bus.accels.iter().zip(&own.bus.accels).all(|(h, p)| h.state_eq(p))
        {
            return Some(StateDiff::Devices);
        }
        self.fold_dma_watermarks();
        let ram_len = self.bus.ram.len();
        let page_eq = |p: usize| {
            let (lo, hi) = page_range(p, ram_len);
            self.bus.ram[lo..hi] == *rung.page(p)
        };
        let ram_ok = match &self.bus.ram_journal {
            Some(j) => {
                let mut ok = true;
                j.peek(|p| ok = ok && page_eq(p));
                ok
            }
            None => (0..ram_len.div_ceil(1 << RAM_PAGE_SHIFT)).all(page_eq),
        };
        if !ram_ok {
            return Some(StateDiff::Ram);
        }
        self.core.state_diff(&own.core, rung.lines())
    }

    /// True when no tracked state carries taint (or tracking is off) —
    /// required before a convergence exit when attribution is collected,
    /// so the frozen taint report equals the full run's.
    pub fn taint_quiescent(&self) -> bool {
        self.core.taint_quiescent()
            && self.bus.ram_shadow.iter().all(|&b| b == 0)
            && self.bus.accels.iter().all(|h| h.accel.taint_quiescent())
    }

    /// Advance one cycle.
    pub fn tick(&mut self) -> SysEvent {
        self.cycle += 1;
        TICKS.with(|t| t.set(t.get() + 1));
        self.bus.tick_devices();
        self.core.set_irq(self.bus.irq_ctrl.line());
        let ev = self.core.tick(&mut self.bus);
        if let Some(ls) = self.lockstep.as_deref_mut() {
            // The reference model has no interrupt plumbing: stop
            // comparing the moment the core vectors into the ISR.
            if self.core.in_irq() {
                ls.suspend("interrupt service entered");
            }
            for e in self.core.drain_commit_effects() {
                ls.check(&e);
            }
        }
        match ev {
            StepEvent::None => SysEvent::Running,
            StepEvent::Halted => SysEvent::Halted,
            StepEvent::Trapped(t) => {
                self.traps += 1;
                SysEvent::Trapped(t)
            }
            StepEvent::CheckpointHit => {
                self.checkpoint_cycle = Some(self.cycle);
                SysEvent::Checkpoint
            }
            StepEvent::SwitchCpuHit => {
                self.switch_cycle = Some(self.cycle);
                SysEvent::SwitchCpu
            }
        }
    }

    /// Run until halt/trap or the cycle budget expires.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        while self.cycle < max_cycles {
            match self.tick() {
                SysEvent::Halted => return RunOutcome::Halted { cycles: self.cycle },
                SysEvent::Trapped(t) => return RunOutcome::Crashed { trap: t, cycles: self.cycle },
                _ => {}
            }
        }
        RunOutcome::Timeout
    }

    /// Run until the `Checkpoint` marker commits (or halt/trap).
    pub fn run_to_checkpoint(&mut self, max_cycles: u64) -> SysEvent {
        while self.cycle < max_cycles {
            match self.tick() {
                SysEvent::Running => {}
                e => return e,
            }
        }
        SysEvent::Running
    }

    /// Program output so far.
    pub fn output(&self) -> &[u8] {
        &self.bus.console
    }

    /// Export run-loop and per-structure counters into a telemetry
    /// registry under `scope`: SoC-level cycle/trap gauges, the CPU's
    /// structure metrics under `<scope>.cpu`, and each hosted
    /// accelerator's under `<scope>.accel<i>`.
    pub fn publish_metrics(&self, reg: &marvel_telemetry::Registry, scope: &marvel_telemetry::Scope) {
        if !reg.is_enabled() {
            return;
        }
        reg.publish_scoped(scope, "cycles", self.cycle);
        reg.publish_scoped(scope, "traps", self.traps);
        reg.publish_scoped(scope, "console_bytes", self.bus.console.len() as u64);
        reg.publish_scoped(scope, "checkpoint_cycle", self.checkpoint_cycle.unwrap_or(0));
        reg.publish_scoped(scope, "switch_cycle", self.switch_cycle.unwrap_or(0));
        self.core.publish_metrics(reg, &scope.child("cpu"));
        for (i, h) in self.bus.accels.iter().enumerate() {
            let sc = scope.indexed("accel", i);
            h.accel.publish_metrics(reg, &sc);
            reg.publish_scoped(&sc, "dma_bytes_moved", h.host.dma().bytes_moved);
        }
    }

    // ------------------------------------------------------------------
    // marvel-taint
    // ------------------------------------------------------------------

    /// Enable bit-level taint tracking for a fault that will be injected
    /// into `t`. Must be called *before* [`flip`](Self::flip) /
    /// [`set_stuck`](Self::set_stuck) so the injection seeds the shadow
    /// planes. Allocates CPU, cache, accelerator and RAM shadows; the
    /// data plane is untouched, so runs stay bit-identical.
    pub fn enable_taint(&mut self, t: Target) {
        let seed = t.name();
        self.core.enable_taint(&seed);
        for h in &mut self.bus.accels {
            h.accel.enable_taint(&seed);
        }
        if self.bus.ram_shadow.is_empty() {
            self.bus.ram_shadow = vec![0u8; self.bus.ram.len()];
        }
    }

    pub fn taint_enabled(&self) -> bool {
        self.core.taint_enabled()
    }

    /// Merged propagation report: CPU-side tracer plus every hosted
    /// accelerator's tracer. `None` when taint is off.
    pub fn taint_report(&self) -> Option<marvel_telemetry::TaintReport> {
        let mut rep = self.core.taint_tracer()?.report();
        for h in &self.bus.accels {
            if let Some(tr) = h.accel.taint_tracer() {
                rep.absorb(tr.report());
            }
        }
        Some(rep)
    }

    /// Start recording a Konata pipeline trace on the CPU core.
    pub fn enable_pipe_trace(&mut self) {
        self.core.enable_pipe_trace();
    }

    // ------------------------------------------------------------------
    // fault-injection surface
    // ------------------------------------------------------------------

    /// Injectable bit count of `target`.
    pub fn bit_len(&self, t: Target) -> u64 {
        match t {
            Target::PrfInt => self.core.prf.bit_len(),
            Target::PrfFp => self.core.prf_fp.bit_len(),
            Target::L1I => self.core.l1i.bit_len(),
            Target::L1D => self.core.l1d.bit_len(),
            Target::L2 => self.core.l2.bit_len(),
            Target::LoadQueue => self.core.lq.bit_len(),
            Target::StoreQueue => self.core.sq.bit_len(),
            Target::Rob => self.core.rob_bit_len(),
            Target::RenameMap => self.core.rename_map().bit_len(),
            Target::Spm { accel, .. } | Target::RegBank { accel, .. } | Target::Mmr { accel } => {
                self.bus.accels[accel].accel.site_bits(t.accel_site())
            }
        }
    }

    /// Flip one bit of `target` (transient fault).
    pub fn flip(&mut self, t: Target, bit: u64) {
        assert!(bit < self.bit_len(t), "bit {bit} out of range for {}", t.name());
        match t {
            Target::PrfInt => {
                self.core.prf.flip_bit(bit);
            }
            Target::PrfFp => {
                self.core.prf_fp.flip_bit(bit);
            }
            Target::L1I => {
                self.core.l1i.flip_bit(bit);
            }
            Target::L1D => {
                self.core.l1d.flip_bit(bit);
            }
            Target::L2 => {
                self.core.l2.flip_bit(bit);
            }
            Target::LoadQueue => {
                self.core.lq.flip_bit(bit);
            }
            Target::StoreQueue => {
                self.core.sq.flip_bit(bit);
            }
            Target::Rob => {
                self.core.rob_flip_bit(bit);
            }
            Target::RenameMap => {
                self.core.rename_map_mut().flip_bit(bit);
                // The rename array has no shadow of its own: mark the
                // remapped architectural register as control-tainted.
                self.core.seed_rename_taint(bit);
            }
            Target::Spm { accel, .. } | Target::RegBank { accel, .. } | Target::Mmr { accel } => {
                self.bus.accels[accel].accel.inject(t.accel_site(), bit, None)
            }
        }
    }

    /// Install a permanent stuck-at fault.
    pub fn set_stuck(&mut self, t: Target, bit: u64, value: bool) {
        assert!(bit < self.bit_len(t), "bit {bit} out of range for {}", t.name());
        match t {
            Target::PrfInt => self.core.prf.set_stuck(bit, value),
            Target::PrfFp => self.core.prf_fp.set_stuck(bit, value),
            Target::L1I => self.core.l1i.set_stuck(bit, value),
            Target::L1D => self.core.l1d.set_stuck(bit, value),
            Target::L2 => self.core.l2.set_stuck(bit, value),
            Target::Spm { accel, .. } | Target::RegBank { accel, .. } | Target::Mmr { accel } => {
                self.bus.accels[accel].accel.inject(t.accel_site(), bit, Some(value))
            }
            // Queue/ROB/rename state is short-lived; permanent faults there
            // are modelled as repeated transients by the campaign layer.
            Target::LoadQueue | Target::StoreQueue | Target::Rob | Target::RenameMap => {
                self.flip(t, bit)
            }
        }
    }

    /// Early-termination monitoring state of the armed fault, if the
    /// target supports it.
    pub fn fault_fate(&self, t: Target) -> Option<FaultFate> {
        fn conv(f: marvel_accel::SramFate) -> FaultFate {
            match f {
                marvel_accel::SramFate::Pending => FaultFate::Pending,
                marvel_accel::SramFate::Read => FaultFate::Read,
                marvel_accel::SramFate::Overwritten => FaultFate::Overwritten,
            }
        }
        match t {
            Target::PrfInt => self.core.prf.fate(),
            Target::PrfFp => self.core.prf_fp.fate(),
            Target::L1I => self.core.l1i.fate(),
            Target::L1D => self.core.l1d.fate(),
            Target::L2 => self.core.l2.fate(),
            Target::Rob => self.core.rob_fate(),
            Target::Spm { accel, .. } | Target::RegBank { accel, .. } | Target::Mmr { accel } => {
                self.bus.accels[accel].accel.site_fate(t.accel_site()).map(conv)
            }
            Target::LoadQueue | Target::StoreQueue | Target::RenameMap => None,
        }
    }

    // ------------------------------------------------------------------
    // lane-packed injection surface
    // ------------------------------------------------------------------

    /// True when `t` supports lane packing: single-bit transients on these
    /// structures leave golden control flow, memory addressing and timing
    /// untouched until the divergence monitor forks the lane out.
    pub fn lane_packable(t: Target) -> bool {
        matches!(
            t,
            Target::PrfInt | Target::PrfFp | Target::Rob | Target::L1I | Target::L1D | Target::L2
        )
    }

    /// Attach the lane-divergence overlay to the core. Must be called
    /// before any [`lane_arm`](Self::lane_arm); the overlay is purely
    /// observational (the data plane keeps executing the golden run).
    pub fn lane_begin(&mut self) {
        self.core.lane_begin();
    }

    /// Detach the lane overlay and clear all cache lane monitors.
    pub fn lane_end(&mut self) {
        self.core.lane_end();
    }

    /// Arm `lane` with a single-bit transient on `t` at bit `bit`,
    /// returning the arm-time fate (e.g. `InvalidAtInjection` for a flip
    /// landing in an invalid cache line). No data-plane state changes.
    pub fn lane_arm(&mut self, lane: u8, t: Target, bit: u64) -> FaultFate {
        assert!(bit < self.bit_len(t), "bit {bit} out of range for {}", t.name());
        match t {
            Target::PrfInt => self.core.lane_arm_prf(lane, false, bit),
            Target::PrfFp => self.core.lane_arm_prf(lane, true, bit),
            Target::Rob => self.core.lane_arm_rob(lane, bit),
            Target::L1I => {
                let f = self.core.l1i.lane_arm(lane, bit);
                self.core.lane_note_cache_arm(lane, f);
                f
            }
            Target::L1D => {
                let f = self.core.l1d.lane_arm(lane, bit);
                self.core.lane_note_cache_arm(lane, f);
                f
            }
            Target::L2 => {
                let f = self.core.l2.lane_arm(lane, bit);
                self.core.lane_note_cache_arm(lane, f);
                f
            }
            _ => unreachable!("{} is not lane-packable", t.name()),
        }
    }

    /// The live lane-divergence overlay, when armed: after every tick its
    /// `live`, `fates` and `diverged` masks hold that tick's forks
    /// (cache monitors folded in), fate latches and trace divergences.
    pub fn lane_engine(&self) -> Option<&LaneEngine> {
        self.core.lane_engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_ir::{assemble, FuncBuilder, Module};
    use marvel_isa::{AluOp, Isa};

    fn hello_module() -> Module {
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let x = b.bin(AluOp::Add, 40, 2);
        b.out_byte(x);
        b.halt();
        m.define(f, b.build());
        m
    }

    #[test]
    fn run_program_on_soc() {
        for isa in Isa::ALL {
            let bin = assemble(&hello_module(), isa).unwrap();
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            let out = sys.run(1_000_000);
            assert!(matches!(out, RunOutcome::Halted { .. }), "{isa}: {out:?}");
            assert_eq!(sys.output(), &[42]);
        }
    }

    #[test]
    fn checkpoint_clone_restores_state() {
        let isa = Isa::RiscV;
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let x = b.li(7);
        b.checkpoint();
        let y = b.bin(AluOp::Mul, x, 6);
        b.out_byte(y);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        assert_eq!(sys.run_to_checkpoint(1_000_000), SysEvent::Checkpoint);
        let ckpt = sys.clone();
        // Run the original and a restored copy; identical outcomes.
        let o1 = sys.run(1_000_000);
        let mut restored = ckpt.clone();
        let o2 = restored.run(1_000_000);
        assert_eq!(o1, o2);
        assert_eq!(sys.output(), restored.output());
        assert_eq!(sys.output(), &[42]);
        // Determinism extends to cycle counts.
        assert_eq!(sys.cycle, restored.cycle);
    }

    #[test]
    fn dirty_reset_matches_clone_restore() {
        let isa = Isa::RiscV;
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let x = b.li(7);
        b.checkpoint();
        let y = b.bin(AluOp::Mul, x, 6);
        b.out_byte(y);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, isa).unwrap();
        let mut sys = System::new(CoreConfig::table2(isa));
        sys.load_binary(&bin);
        assert_eq!(sys.run_to_checkpoint(1_000_000), SysEvent::Checkpoint);
        let ckpt = sys;
        // Reference: a fresh clone per run.
        let mut cloned = ckpt.clone();
        let o_ref = cloned.run(1_000_000);
        // Reusable worker system: run, dirty-reset, run again — both runs
        // and the post-reset state must match the clone path exactly.
        let mut worker = ckpt.clone();
        worker.enable_dirty_tracking();
        let o1 = worker.run(1_000_000);
        assert_eq!(o1, o_ref);
        let run_output = worker.output().to_vec();
        let at_ckpt = RungView::new(&ckpt, None);
        let bytes = worker.reset_from(at_ckpt, None);
        assert!(bytes > 0);
        assert_eq!(worker.cycle, ckpt.cycle);
        assert_eq!(worker.output(), ckpt.output());
        let o2 = worker.run(1_000_000);
        assert_eq!(o2, o_ref);
        assert_eq!(worker.output(), &run_output[..]);
        assert_eq!(worker.cycle, cloned.cycle);
        // Faulted run followed by reset also converges back.
        worker.reset_from(at_ckpt, None);
        worker.flip(Target::PrfInt, 5 * 64 + 1);
        let _ = worker.run(2_000_000);
        worker.reset_from(at_ckpt, None);
        let o3 = worker.run(1_000_000);
        assert_eq!(o3, o_ref);
        assert_eq!(worker.output(), &run_output[..]);
    }

    #[test]
    fn snapshot_restores_to_the_ram_it_was_taken_at() {
        // RAM written after the checkpoint (here straight through the bus,
        // as a writeback does) travels in the snapshot's pages; RAM
        // written after the snapshot must not leak into a system restored
        // to the snapshot laid over the checkpoint.
        let bin = assemble(&hello_module(), Isa::RiscV).unwrap();
        let mut sys = System::new(CoreConfig::table2(Isa::RiscV));
        sys.load_binary(&bin);
        let ckpt = sys.clone();
        sys.enable_dirty_tracking();
        for _ in 0..10 {
            sys.tick();
        }
        assert!(sys.bus.write_line(RAM_BASE + 3 * 4096 + 64, &[0xAB; 64]));
        let written = sys.take_dirty_marks();
        let snap = sys.snapshot(&written);
        let want = (sys.bus.ram.clone(), sys.cycle);
        assert!(sys.bus.write_line(RAM_BASE + 5 * 4096, &[0xCD; 64]));
        let _ = sys.run(1_000_000);
        let mut got = ckpt.clone();
        got.enable_dirty_tracking();
        got.reset_from(RungView::new(&ckpt, Some(&snap)), None);
        assert_eq!((got.bus.ram, got.cycle), want);
        assert_eq!(got.core.trace_mode, TraceMode::Off);
    }

    #[test]
    fn lockstep_clean_run_has_no_divergence() {
        for isa in Isa::ALL {
            let bin = assemble(&hello_module(), isa).unwrap();
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            sys.enable_lockstep();
            let out = sys.run(1_000_000);
            assert!(matches!(out, RunOutcome::Halted { .. }), "{isa}: {out:?}");
            if let Some(d) = sys.lockstep_divergence() {
                panic!("{isa}: {d}");
            }
            assert!(sys.lockstep_checked() > 0, "{isa}: oracle never ran");
            // The reference machine saw the same console bytes.
            assert_eq!(sys.lockstep.as_deref().unwrap().ref_console(), sys.output());
        }
    }

    #[test]
    fn lockstep_catches_injected_corruption() {
        // A PRF flip that causes an SDC must surface as a divergence —
        // the oracle detecting a corrupted committed value is the
        // positive control for the whole comparison path.
        let isa = Isa::Arm;
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let mut acc = b.li(1);
        for i in 2..24 {
            acc = b.bin(AluOp::Add, acc, i as i64);
        }
        b.out_byte(acc);
        b.halt();
        m.define(f, b.build());
        let bin = assemble(&m, isa).unwrap();
        let mut found = false;
        for bit in 0..512u64 {
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            sys.enable_lockstep();
            for _ in 0..30 {
                sys.tick();
            }
            sys.flip(Target::PrfInt, bit);
            let out = sys.run(1_000_000);
            let sdc = matches!(out, RunOutcome::Halted { .. }) && sys.output() != [20];
            if sys.lockstep_divergence().is_some() {
                found = true;
                break;
            }
            // An SDC the oracle missed would be a real hole — but only
            // when the oracle was still active at the end.
            if sdc && sys.lockstep.as_deref().unwrap().disabled_reason().is_none() {
                panic!("bit {bit}: SDC escaped the lockstep oracle");
            }
        }
        assert!(found, "no injected fault ever produced a divergence");
    }

    #[test]
    fn bit_lens_match_table2() {
        let sys = System::new(CoreConfig::table2(Isa::Arm));
        assert_eq!(sys.bit_len(Target::PrfInt), 128 * 64);
        assert_eq!(sys.bit_len(Target::L1I), 32 * 1024 * 8);
        assert_eq!(sys.bit_len(Target::L1D), 32 * 1024 * 8);
        assert_eq!(sys.bit_len(Target::L2), 1024 * 1024 * 8);
        assert_eq!(sys.bit_len(Target::LoadQueue), 32 * 136);
        assert_eq!(sys.bit_len(Target::StoreQueue), 32 * 136);
    }

    #[test]
    fn prf_flip_can_cause_sdc_or_crash_or_mask() {
        // Just exercise the injection path: flip a random PRF bit mid-run
        // and require the system to terminate one way or another.
        let isa = Isa::Arm;
        let bin = assemble(&hello_module(), isa).unwrap();
        for bit in [5u64, 700, 4000] {
            let mut sys = System::new(CoreConfig::table2(isa));
            sys.load_binary(&bin);
            for _ in 0..20 {
                sys.tick();
            }
            sys.flip(Target::PrfInt, bit);
            let out = sys.run(2_000_000);
            assert!(!matches!(out, RunOutcome::Timeout), "bit {bit}: hung");
        }
    }
}
