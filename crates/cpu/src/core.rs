//! The out-of-order core: fetch (decoding real bytes from the L1I) →
//! rename → issue → execute → commit, with commit-time squash recovery.
//!
//! Every architectural and microarchitectural value is held as explicit
//! bits in an injectable structure (PRF, caches, LQ/SQ, ROB results,
//! rename map), so injected faults propagate — or are masked — for the
//! same reasons they would in hardware: dead registers, wrong-path
//! execution, overwrites, cache evictions, decode don't-cares.

use crate::bp::BranchPredictor;
use crate::cache::{Cache, CacheLines, CacheSets, FaultFate, RungLines};
use crate::config::CoreConfig;
use crate::dirty::DirtyMarks;
use crate::lane::{each_lane, ForkCause, LaneEngine};
use crate::lsq::{LoadQueue, StoreQueue};
use crate::prf::{FreeList, PhysRegFile, RenameMap};
use marvel_isa::{AluOp, Isa, MicroOp, Op, Trap, REG_NONE};
use marvel_telemetry::{alu_taint, PipeTracer, TaintAluKind, TaintTracer};
use std::sync::Arc;

/// Backing memory + devices, provided by the SoC.
pub trait Bus {
    /// Read a full cache line from RAM. Returns `false` if unmapped.
    fn read_line(&mut self, addr: u64, buf: &mut [u8]) -> bool;
    /// Write a full cache line back to RAM. Returns `false` if unmapped.
    fn write_line(&mut self, addr: u64, data: &[u8]) -> bool;
    /// Uncached device read.
    fn device_read(&mut self, addr: u64, size: u8) -> Option<u64>;
    /// Uncached device write.
    fn device_write(&mut self, addr: u64, size: u8, val: u64) -> Option<()>;
    /// Address is backed by cacheable RAM.
    fn is_cacheable(&self, addr: u64) -> bool;
    /// Address belongs to a device range.
    fn is_device(&self, addr: u64) -> bool;
    /// marvel-taint: shadow counterpart of [`read_line`](Bus::read_line).
    /// Buses without a RAM shadow report zero taint (the default).
    fn taint_read_line(&mut self, _addr: u64, buf: &mut [u8]) {
        buf.fill(0);
    }
    /// marvel-taint: shadow counterpart of [`write_line`](Bus::write_line).
    fn taint_write_line(&mut self, _addr: u64, _data: &[u8]) {}
}

// Structure names used in taint propagation timelines. Where a structure
// is also an injection target these match `Target::name()`.
const T_PRF: &str = "PhysRegFile(Int)";
const T_ROB: &str = "ROB";
const T_LQ: &str = "LoadQueue";
const T_SQ: &str = "StoreQueue";
const T_L1I: &str = "L1I";
const T_L1D: &str = "L1D";
const T_L2: &str = "L2";
const T_RENAME: &str = "RenameMap";
const T_RAM: &str = "RAM";
const T_DECODE: &str = "Decode";
const T_CONSOLE: &str = "Console";

/// Core-side marvel-taint state: the per-run propagation tracer plus the
/// rename-map taint bits (the PRF/cache shadows live inside those
/// structures). Boxed behind an `Option` on [`Core`] so the disabled
/// case costs one pointer test per hook.
#[derive(Debug, Clone)]
pub struct TaintPlane {
    pub tracer: TaintTracer,
    /// Per architectural register: the speculative rename mapping is
    /// corrupted, so any dispatch reading it yields an unknown value.
    rename: Vec<bool>,
}

/// Detached dirty-mark captures for every journaled core structure: one
/// golden segment of the checkpoint ladder. Produced by
/// [`Core::take_dirty_marks`], folded back by [`Core::merge_dirty_marks`].
#[derive(Debug, Clone, Default)]
pub struct CoreDirtyMarks {
    prf: DirtyMarks,
    prf_fp: DirtyMarks,
    l1i: DirtyMarks,
    l1d: DirtyMarks,
    l2: DirtyMarks,
}

impl CoreDirtyMarks {
    /// Fold `other` into this capture, structure by structure.
    pub fn absorb(&mut self, other: &CoreDirtyMarks) {
        self.prf.absorb(&other.prf);
        self.prf_fp.absorb(&other.prf_fp);
        self.l1i.absorb(&other.l1i);
        self.l1d.absorb(&other.l1d);
        self.l2.absorb(&other.l2);
    }
}

const PNONE: u16 = u16::MAX;
const QNONE: u16 = u16::MAX;

/// Load-pipeline depth between address generation and the cache access
/// made through the buffered LQ request bits.
const REQUEST_DELAY: u64 = 4;

/// The structure where a run's state first differs from a golden rung's
/// (campaigns count it as `campaign.convergence_deferred.state.<structure>`,
/// the variant's name in lower case). The convergence
/// compare checks the SoC's counters (as `pipeline`), its devices and its
/// RAM, then the core ([`Core::state_diff`]) in this order from
/// `Pipeline` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateDiff {
    /// Console, interrupt controller and hosted accelerators.
    Devices,
    /// System RAM.
    Ram,
    /// Fetch, issue and control state: cycle and sequence counters, the
    /// fetch queue, the issue queue, in-flight results, interrupt and
    /// commit-trace positions.
    Pipeline,
    Rob,
    /// Load and store queues, deferred load accesses and the
    /// memory-dependence predictor.
    Lsq,
    /// Speculative and retirement rename maps and the free list.
    Rename,
    Bp,
    /// Integer and FP physical register files.
    Prf,
    L1i,
    L1d,
    L2,
}

impl StateDiff {
    pub const ALL: [StateDiff; 11] = [
        StateDiff::Devices,
        StateDiff::Ram,
        StateDiff::Pipeline,
        StateDiff::Rob,
        StateDiff::Lsq,
        StateDiff::Rename,
        StateDiff::Bp,
        StateDiff::Prf,
        StateDiff::L1i,
        StateDiff::L1d,
        StateDiff::L2,
    ];
}

/// What happened during a [`Core::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    None,
    /// A `Halt` committed: the program ended normally.
    Halted,
    /// A trap reached the commit stage (the run is a Crash).
    Trapped(Trap),
    /// A `Checkpoint` marker committed.
    CheckpointHit,
    /// A `SwitchCpu` marker committed.
    SwitchCpuHit,
}

/// One entry of the commit trace (the HVF comparison stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    pub pc: u64,
    pub kind: u8,
    pub result: u64,
    pub addr: u64,
}

/// One committed micro-op's full architectural effect, captured by the
/// opt-in commit-effect log ([`Core::enable_commit_effects`]). This is
/// the stream the `marvel-ref` lockstep oracle replays: everything an
/// architectural interpreter can reproduce, nothing microarchitectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEffect {
    /// PC of the macro instruction this micro-op belongs to.
    pub pc: u64,
    pub uop: MicroOp,
    /// Encoded length of the macro instruction (0 for fetch-trap stubs).
    pub macro_len: u8,
    pub last_of_macro: bool,
    /// Destination architectural register, when one was renamed (`None`
    /// for zero-register and no-destination micro-ops).
    pub rd: Option<u8>,
    /// Value written to `rd`, or the store data for stores.
    pub value: u64,
    /// Architectural next-PC after this micro-op's macro instruction.
    pub next_pc: u64,
    /// Effective address for loads/stores, 0 otherwise.
    pub mem_addr: u64,
    /// The trap that ended the run, if this commit trapped.
    pub trap: Option<Trap>,
}

/// Commit-trace mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    #[default]
    Off,
    /// Record the trace (golden run).
    Record,
    /// Compare online against a golden trace, noting the first divergence.
    Check(Arc<Vec<CommitRecord>>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Executing,
    Done,
}

#[derive(Debug, Clone, PartialEq)]
struct RobEntry {
    seq: u64,
    uop: MicroOp,
    pc: u64,
    macro_len: u8,
    first_of_macro: bool,
    last_of_macro: bool,
    predicted_next: u64,
    actual_next: u64,
    taken: bool,
    pdst: u16,
    prev_pdst: u16,
    psrc: [u16; 3],
    state: EState,
    trap: Option<Trap>,
    lq: u16,
    sq: u16,
    result: u64,
    mem_addr: u64,
    /// An older store detected a memory-ordering violation: re-execute
    /// this load from fetch when it reaches the commit head.
    replay: bool,
    /// marvel-taint: shadow mask of `result` (always present, defaults 0).
    result_taint: u64,
    /// marvel-taint: the uop itself is suspect (tainted fetch bytes or a
    /// corrupted rename mapping), so every output is fully tainted.
    ctl_taint: bool,
}

#[derive(Debug, Clone, Copy)]
struct FetchedUop {
    uop: MicroOp,
    pc: u64,
    macro_len: u8,
    first_of_macro: bool,
    last_of_macro: bool,
    predicted_next: u64,
    trap: Option<Trap>,
    /// marvel-taint: decoded from tainted L1I bytes.
    tainted: bool,
    /// Cycle the uop was fetched (pipeline trace only).
    fetched_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at: u64,
    seq: u64,
    result: u64,
    /// For loads: deliver the value from this LQ entry's data field at
    /// writeback time (so LQ faults during the access window propagate).
    from_lq: u16,
    /// marvel-taint: shadow mask of `result` (ALU results; loads re-read
    /// the live LQ taint at writeback).
    taint: u64,
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    pub cycles: u64,
    pub committed_uops: u64,
    pub committed_macros: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub lq_occ_accum: u64,
    pub sq_occ_accum: u64,
    pub rob_occ_accum: u64,
    pub iq_occ_accum: u64,
    pub freelist_free_accum: u64,
    pub flushes: u64,
    pub replays: u64,
}

impl CoreStats {
    /// Instructions (macro) per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_macros as f64 / self.cycles as f64
        }
    }
}

/// The out-of-order core.
#[derive(Debug, Clone)]
pub struct Core {
    pub cfg: CoreConfig,
    isa: Isa,
    cycle: u64,
    next_seq: u64,

    // front end
    fetch_pc: u64,
    fetch_halted: bool,
    fetch_stall_until: u64,
    fq: Vec<FetchedUop>,
    bp: BranchPredictor,

    // rename
    rename: RenameMap,
    retire: RenameMap,
    freelist: FreeList,

    // backend
    rob: std::collections::VecDeque<RobEntry>,
    iq: Vec<u64>,
    events: Vec<Event>,
    /// Loads whose AGU has fired but whose cache access (through the
    /// buffered LQ request bits) is still in the load pipeline.
    pending_loads: Vec<(u64, u64)>,
    muldiv_free_at: u64,

    // memory system
    pub prf: PhysRegFile,
    pub prf_fp: PhysRegFile,
    pub l1i: Cache,
    pub l1d: Cache,
    pub l2: Cache,
    pub lq: LoadQueue,
    pub sq: StoreQueue,

    // interrupts
    irq_pending: bool,
    in_irq: bool,
    iret_pc: u64,

    /// Memory-dependence predictor: loads whose PC hashes into a set bit
    /// have violated before and now wait for older store addresses
    /// (store-set style, as in the Alpha 21264 / gem5 O3).
    mdp: Vec<bool>,

    // ROB-result injection
    rob_armed: Option<(u64, FaultFate)>,
    rob_flip: Option<(u64, u64)>, // (entry index within capacity, bit)

    // trace
    pub trace_mode: TraceMode,
    pub trace: Vec<CommitRecord>,
    /// Commit records since [`restart_trace`](Self::restart_trace), in
    /// every trace mode: the index `Check` compares the next record at.
    trace_pos: usize,
    pub divergence: Option<u64>,

    /// Commit-effect log for the lockstep oracle (`None` = off: the hook
    /// is one pointer test per committed uop).
    commit_log: Option<Vec<CommitEffect>>,

    /// marvel-taint plane (`None` = off: every hook is one pointer test).
    taint: Option<Box<TaintPlane>>,
    /// Konata pipeline tracer (`None` = off).
    pipe: Option<Box<PipeTracer>>,
    /// Lane-packed campaign overlay (`None` = scalar run: every hook is
    /// one pointer test). Never survives a reset.
    lanes: Option<Box<LaneEngine>>,

    pub stats: CoreStats,
}

/// Map an ALU op onto its taint-transfer class.
fn taint_kind(op: AluOp) -> TaintAluKind {
    match op {
        AluOp::And | AluOp::Or | AluOp::Xor => TaintAluKind::Bitwise,
        AluOp::Add | AluOp::Sub => TaintAluKind::Arith,
        AluOp::Sll => TaintAluKind::ShiftLeft,
        AluOp::Srl | AluOp::Sra => TaintAluKind::ShiftRight,
        AluOp::Mul | AluOp::Div | AluOp::Rem | AluOp::Slt | AluOp::Sltu => TaintAluKind::Wide,
    }
}

/// Taint mask of an ALU-class result given its operand taints (`b` is
/// the runtime second operand, needed for shift transfer).
fn alu_result_taint(u: &MicroOp, ta: u64, tb: u64, b: u64) -> u64 {
    match u.op {
        Op::Alu(op) => alu_taint(taint_kind(op), ta, tb, b),
        Op::AluImm(op) => alu_taint(taint_kind(op), ta, 0, u.imm as u64),
        Op::MovK(sh) => ta & !(0xFFFFu64 << sh),
        // Link values / immediates derive from the (untainted) PC.
        Op::LoadImm | Op::Auipc | Op::LinkAddr | Op::Jal => 0,
        // A tainted jump target or branch decision poisons the control
        // flow; the result field carries the poison to commit.
        Op::Jalr if ta != 0 => !0,
        Op::Branch(_) if (ta | tb) != 0 => !0,
        _ => 0,
    }
}

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Alu(_) | Op::AluImm(_) | Op::LoadImm | Op::MovK(_) | Op::Auipc | Op::LinkAddr => 1,
        Op::Load { .. } => 2,
        Op::Store { .. } => 3,
        Op::Branch(_) | Op::Jal | Op::Jalr | Op::Iret => 4,
        Op::Halt | Op::Checkpoint | Op::SwitchCpu | Op::Nop => 5,
    }
}

impl Core {
    pub fn new(cfg: CoreConfig) -> Self {
        let spec = cfg.isa.reg_spec();
        let prf = PhysRegFile::new(cfg.int_prf);
        let rename = RenameMap::new(spec.total_regs as usize, cfg.int_prf as u16);
        let retire = RenameMap::new(spec.total_regs as usize, cfg.int_prf as u16);
        let freelist = FreeList::new(cfg.int_prf as u16, &[0]);
        Core {
            isa: cfg.isa,
            cycle: 0,
            next_seq: 1,
            fetch_pc: 0,
            fetch_halted: true,
            fetch_stall_until: 0,
            fq: Vec::new(),
            bp: BranchPredictor::new(cfg.bp_entries, cfg.ras_entries),
            rename,
            retire,
            freelist,
            rob: std::collections::VecDeque::with_capacity(cfg.rob_entries),
            iq: Vec::new(),
            events: Vec::new(),
            pending_loads: Vec::new(),
            muldiv_free_at: 0,
            prf,
            prf_fp: PhysRegFile::new(cfg.fp_prf),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            lq: LoadQueue::new(cfg.lq_entries),
            sq: StoreQueue::new(cfg.sq_entries),
            irq_pending: false,
            in_irq: false,
            iret_pc: 0,
            mdp: vec![false; 1024],
            rob_armed: None,
            rob_flip: None,
            trace_mode: TraceMode::Off,
            trace: Vec::new(),
            trace_pos: 0,
            divergence: None,
            commit_log: None,
            taint: None,
            pipe: None,
            lanes: None,
            stats: CoreStats::default(),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // marvel-taint / pipeline trace control
    // ------------------------------------------------------------------

    /// Enable the taint plane (before fault arming). Allocates the PRF
    /// and cache shadows and the propagation tracer; `seed` labels the
    /// injection site in the report.
    pub fn enable_taint(&mut self, seed: &str) {
        self.prf.enable_taint();
        self.prf_fp.enable_taint();
        self.l1i.enable_taint();
        self.l1d.enable_taint();
        self.l2.enable_taint();
        let arch = self.isa.reg_spec().total_regs as usize;
        self.taint =
            Some(Box::new(TaintPlane { tracer: TaintTracer::new(seed), rename: vec![false; arch] }));
    }

    pub fn taint_enabled(&self) -> bool {
        self.taint.is_some()
    }

    /// Mark the architectural register whose speculative rename mapping
    /// holds the injected bit (called by the SoC after a rename-map flip).
    pub fn seed_rename_taint(&mut self, bit: u64) {
        let bpe = self.rename.bits_per_entry();
        let a = (bit / bpe) as usize;
        if let Some(tp) = self.taint.as_deref_mut() {
            if let Some(t) = tp.rename.get_mut(a) {
                *t = true;
            }
        }
    }

    /// The per-run propagation tracer, when taint is enabled.
    pub fn taint_tracer(&self) -> Option<&TaintTracer> {
        self.taint.as_deref().map(|tp| &tp.tracer)
    }

    /// Start recording a Konata pipeline trace.
    pub fn enable_pipe_trace(&mut self) {
        self.pipe = Some(Box::new(PipeTracer::default()));
    }

    pub fn pipe_tracer(&self) -> Option<&PipeTracer> {
        self.pipe.as_deref()
    }

    /// Reset the pipeline and start fetching at `pc`. Cache contents are
    /// preserved (checkpoints capture warm caches).
    pub fn reset_to(&mut self, pc: u64) {
        self.fetch_pc = pc;
        self.fetch_halted = false;
        self.fetch_stall_until = 0;
        self.fq.clear();
        self.rob.clear();
        self.iq.clear();
        self.events.clear();
        self.pending_loads.clear();
        self.lq.clear();
        self.sq = StoreQueue::new(self.cfg.sq_entries);
        let spec = self.isa.reg_spec();
        self.rename = RenameMap::new(spec.total_regs as usize, self.cfg.int_prf as u16);
        self.retire = RenameMap::new(spec.total_regs as usize, self.cfg.int_prf as u16);
        self.freelist.rebuild(self.cfg.int_prf as u16, &[0]);
        self.prf.set_all_ready();
    }

    /// Start the commit stream here: clear the recorded trace and count
    /// commit records from zero. The golden run does this at its
    /// checkpoint, where its trace and every injection run begin.
    pub fn restart_trace(&mut self) {
        self.trace.clear();
        self.trace_pos = 0;
    }

    /// Turn on dirty-journaling in the journaled structures (PRFs and
    /// caches) so [`reset_from`](Self::reset_from) restores only what a
    /// run actually touched. Call once on the per-worker reusable core.
    pub fn enable_dirty_tracking(&mut self) {
        self.prf.enable_dirty_tracking();
        self.prf_fp.enable_dirty_tracking();
        self.l1i.enable_dirty_tracking();
        self.l1d.enable_dirty_tracking();
        self.l2.enable_dirty_tracking();
    }

    /// Restore this core to `pristine`, whose L1I, L1D and L2 line arrays
    /// are `lines` ([`rung_lines`](Self::rung_lines)), undoing journaled
    /// state where possible and copying the small unjournaled structures
    /// wholesale (reusing their allocations). Returns state bytes copied —
    /// the perf-guard's cost measure.
    pub fn reset_from(&mut self, pristine: &Core, [l1i, l1d, l2]: [RungLines<'_>; 3]) -> u64 {
        let mut bytes = self.prf.reset_from(&pristine.prf);
        bytes += self.prf_fp.reset_from(&pristine.prf_fp);
        bytes += self.l1i.reset_from(&pristine.l1i, l1i);
        bytes += self.l1d.reset_from(&pristine.l1d, l1d);
        bytes += self.l2.reset_from(&pristine.l2, l2);
        bytes += self.bp.reset_from(&pristine.bp);

        self.cycle = pristine.cycle;
        self.next_seq = pristine.next_seq;
        self.fetch_pc = pristine.fetch_pc;
        self.fetch_halted = pristine.fetch_halted;
        self.fetch_stall_until = pristine.fetch_stall_until;
        self.fq.clone_from(&pristine.fq);
        self.rename.copy_from(&pristine.rename);
        self.retire.copy_from(&pristine.retire);
        self.freelist.copy_from(&pristine.freelist);
        self.rob.clone_from(&pristine.rob);
        self.iq.clone_from(&pristine.iq);
        self.events.clone_from(&pristine.events);
        self.pending_loads.clone_from(&pristine.pending_loads);
        self.muldiv_free_at = pristine.muldiv_free_at;
        self.lq.entries.clone_from(&pristine.lq.entries);
        self.sq.entries.clone_from(&pristine.sq.entries);
        self.irq_pending = pristine.irq_pending;
        self.in_irq = pristine.in_irq;
        self.iret_pc = pristine.iret_pc;
        self.mdp.copy_from_slice(&pristine.mdp);
        self.rob_armed = pristine.rob_armed;
        self.rob_flip = pristine.rob_flip;
        self.trace_mode = pristine.trace_mode.clone();
        self.trace.clone_from(&pristine.trace);
        self.trace_pos = pristine.trace_pos;
        self.divergence = pristine.divergence;
        // Per-run observers: the pristine checkpoint never carries them,
        // so these normally just drop the run's planes.
        self.commit_log.clone_from(&pristine.commit_log);
        self.taint.clone_from(&pristine.taint);
        self.pipe.clone_from(&pristine.pipe);
        self.lanes = None;
        self.stats = pristine.stats.clone();

        use std::mem::size_of;
        bytes += (self.fq.len() * size_of::<FetchedUop>()
            + self.rob.len() * size_of::<RobEntry>()
            + self.iq.len() * 8
            + self.events.len() * size_of::<Event>()
            + self.pending_loads.len() * 16
            + self.lq.entries.len() * size_of::<crate::lsq::LqEntry>()
            + self.sq.entries.len() * size_of::<crate::lsq::SqEntry>()
            + self.rename.entries().len() * 2 * 2
            + self.freelist.len() * 2
            + self.mdp.len()
            + size_of::<CoreStats>()
            + 96) as u64; // scalar pipeline state
        bytes
    }

    /// Drain every structure journal into a detached capture: one golden
    /// segment of the checkpoint ladder (the registers/sets the fault-free
    /// run dirtied between two consecutive rungs).
    pub fn take_dirty_marks(&mut self) -> CoreDirtyMarks {
        CoreDirtyMarks {
            prf: self.prf.take_marks(),
            prf_fp: self.prf_fp.take_marks(),
            l1i: self.l1i.take_marks(),
            l1d: self.l1d.take_marks(),
            l2: self.l2.take_marks(),
        }
    }

    /// Move the L1I, L1D and L2 line arrays out, so a clone taken before
    /// [`put_cache_lines`](Self::put_cache_lines) skips them.
    pub fn take_cache_lines(&mut self) -> [CacheLines; 3] {
        [self.l1i.take_lines(), self.l1d.take_lines(), self.l2.take_lines()]
    }

    /// Put back the line arrays [`take_cache_lines`](Self::take_cache_lines)
    /// moved out.
    pub fn put_cache_lines(&mut self, [l1i, l1d, l2]: [CacheLines; 3]) {
        self.l1i.put_lines(l1i);
        self.l1d.put_lines(l1d);
        self.l2.put_lines(l2);
    }

    /// Copies of the L1I, L1D and L2 sets `marks` names.
    pub fn copy_cache_sets(&self, marks: &CoreDirtyMarks) -> [CacheSets; 3] {
        [self.l1i.copy_sets(&marks.l1i), self.l1d.copy_sets(&marks.l1d), self.l2.copy_sets(&marks.l2)]
    }

    /// The line arrays of a ladder rung whose copied sets `laid` lie over
    /// this (checkpoint) core's lines; `None` is this core's own lines.
    pub fn rung_lines<'a>(&'a self, laid: Option<&'a [CacheSets; 3]>) -> [RungLines<'a>; 3] {
        let [l1i, l1d, l2] = laid.map(|[a, b, c]| [Some(a), Some(b), Some(c)]).unwrap_or_default();
        [RungLines::new(&self.l1i, l1i), RungLines::new(&self.l1d, l1d), RungLines::new(&self.l2, l2)]
    }

    /// Journal everything a ladder rung may hold apart from the
    /// checkpoint — every register, and the sets `laid` copied — so the
    /// next [`reset_from`](Self::reset_from) restores it when a worker
    /// moves between rungs.
    pub fn mark_rung(&mut self, laid: Option<&[CacheSets; 3]>) {
        self.prf.mark_all();
        self.prf_fp.mark_all();
        if let Some([l1i, l1d, l2]) = laid {
            self.l1i.mark_laid(l1i);
            self.l1d.mark_laid(l1d);
            self.l2.mark_laid(l2);
        }
    }

    /// Bytes this core holds in its register files, caches (line arrays
    /// included while present), pipeline structures and predictors.
    pub fn held_bytes(&self) -> u64 {
        use std::mem::size_of;
        let caches = self.l1i.held_bytes() + self.l1d.held_bytes() + self.l2.held_bytes();
        let pipeline = self.fq.len() * size_of::<FetchedUop>()
            + self.rob.len() * size_of::<RobEntry>()
            + self.iq.len() * 8
            + self.events.len() * size_of::<Event>()
            + self.pending_loads.len() * 16
            + self.lq.entries.len() * size_of::<crate::lsq::LqEntry>()
            + self.sq.entries.len() * size_of::<crate::lsq::SqEntry>()
            + (self.rename.entries().len() * 2 + self.freelist.len()) * 2
            + self.mdp.len()
            + self.trace.len() * size_of::<CommitRecord>()
            + size_of::<Core>();
        self.prf.held_bytes()
            + self.prf_fp.held_bytes()
            + caches
            + self.bp.held_bytes()
            + pipeline as u64
    }

    /// Fold a golden-segment capture into the live journals at a ladder-rung
    /// crossing, so the convergence compare also covers locations only the
    /// golden run wrote (a fault can suppress a golden write).
    pub fn merge_dirty_marks(&mut self, m: &CoreDirtyMarks) {
        self.prf.merge_marks(&m.prf);
        self.prf_fp.merge_marks(&m.prf_fp);
        self.l1i.merge_marks(&m.l1i);
        self.l1d.merge_marks(&m.l1d);
        self.l2.merge_marks(&m.l2);
    }

    /// Functional-state compare against a ladder rung at the same cycle,
    /// `pristine` with its L1I, L1D and L2 line arrays: `None` means every
    /// future tick of `self` behaves exactly like the golden run's, so the
    /// fault is masked; otherwise the first structure that differs, in
    /// [`StateDiff`] order. Journaled structures compare only their
    /// dirty indices (every index when `self` tracks no writes); small
    /// pipeline structures compare wholesale. Observational state (stats, armed fates, trace contents,
    /// taint shadows, tracers) is excluded — it cannot steer the data
    /// plane. `fq` entries ignore their `fetched_at` pipeline-trace stamp;
    /// invalid LSQ entries are wildcards (stale payload).
    pub fn state_diff(&self, pristine: &Core, [l1i, l1d, l2]: [RungLines<'_>; 3]) -> Option<StateDiff> {
        let fuop_eq = |a: &FetchedUop, b: &FetchedUop| {
            a.uop == b.uop
                && a.pc == b.pc
                && a.macro_len == b.macro_len
                && a.first_of_macro == b.first_of_macro
                && a.last_of_macro == b.last_of_macro
                && a.predicted_next == b.predicted_next
                && a.trap == b.trap
                && a.tainted == b.tainted
        };
        let pipeline = self.cycle == pristine.cycle
            && self.next_seq == pristine.next_seq
            && self.fetch_pc == pristine.fetch_pc
            && self.fetch_halted == pristine.fetch_halted
            && self.fetch_stall_until == pristine.fetch_stall_until
            && self.muldiv_free_at == pristine.muldiv_free_at
            && self.irq_pending == pristine.irq_pending
            && self.in_irq == pristine.in_irq
            && self.iret_pc == pristine.iret_pc
            && self.trace_pos == pristine.trace_pos
            && self.divergence == pristine.divergence
            && self.fq.len() == pristine.fq.len()
            && self.fq.iter().zip(&pristine.fq).all(|(a, b)| fuop_eq(a, b))
            && self.iq == pristine.iq
            && self.events == pristine.events;
        // A still-pending ROB flip would fire later: never converged.
        let rob = || self.rob_flip == pristine.rob_flip && self.rob == pristine.rob;
        let lsq = || {
            self.pending_loads == pristine.pending_loads
                && self.mdp == pristine.mdp
                && self.lq.converged_with(&pristine.lq)
                && self.sq.converged_with(&pristine.sq)
        };
        let rename = || {
            self.rename == pristine.rename
                && self.retire == pristine.retire
                && self.freelist == pristine.freelist
        };
        let prf =
            || self.prf.converged_with(&pristine.prf) && self.prf_fp.converged_with(&pristine.prf_fp);
        if !pipeline {
            Some(StateDiff::Pipeline)
        } else if !rob() {
            Some(StateDiff::Rob)
        } else if !lsq() {
            Some(StateDiff::Lsq)
        } else if !rename() {
            Some(StateDiff::Rename)
        } else if !self.bp.converged_with(&pristine.bp) {
            Some(StateDiff::Bp)
        } else if !prf() {
            Some(StateDiff::Prf)
        } else if !self.l1i.converged_with(&pristine.l1i, l1i) {
            Some(StateDiff::L1i)
        } else if !self.l1d.converged_with(&pristine.l1d, l1d) {
            Some(StateDiff::L1d)
        } else if !self.l2.converged_with(&pristine.l2, l2) {
            Some(StateDiff::L2)
        } else {
            None
        }
    }

    /// True when no core-side taint shadow carries a set bit, so the
    /// propagation report is frozen (live ROB/LSQ entry taints are covered
    /// by [`state_diff`](Self::state_diff) against a zero-taint
    /// rung).
    pub fn taint_quiescent(&self) -> bool {
        self.taint.as_deref().is_none_or(|tp| tp.rename.iter().all(|&b| !b))
            && self.prf.taint_quiescent()
            && self.prf_fp.taint_quiescent()
            && self.l1i.taint_quiescent()
            && self.l1d.taint_quiescent()
            && self.l2.taint_quiescent()
    }

    pub fn isa(&self) -> Isa {
        self.isa
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Raise/clear the external interrupt line.
    pub fn set_irq(&mut self, level: bool) {
        self.irq_pending = level;
    }

    pub fn in_irq(&self) -> bool {
        self.in_irq
    }

    /// Advance one cycle.
    pub fn tick(&mut self, bus: &mut dyn Bus) -> StepEvent {
        let ev = self.step(bus);
        if let Some(le) = self.lanes.as_deref_mut() {
            // Fold the cache lane monitors in, so the pass reads this
            // tick's forks and fates from the engine alone.
            for c in [&mut self.l1i, &mut self.l1d, &mut self.l2] {
                let m = c.take_lane_masks();
                le.fork(m.read, ForkCause::CacheRead);
                le.fork(m.evicted, ForkCause::CacheEvict);
                le.note_fates(m.overwritten, FaultFate::Overwritten);
            }
        }
        ev
    }

    /// One cycle of the pipeline: writeback, commit, store drain, issue,
    /// dispatch, fetch.
    fn step(&mut self, bus: &mut dyn Bus) -> StepEvent {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.stats.lq_occ_accum += self.lq.occupancy() as u64;
        self.stats.sq_occ_accum += self.sq.occupancy() as u64;
        self.stats.rob_occ_accum += self.rob.len() as u64;
        self.stats.iq_occ_accum += self.iq.len() as u64;
        self.stats.freelist_free_accum += self.freelist.len() as u64;

        // 1. writeback: deliver due completion events.
        self.writeback();
        // 2. commit.
        let ev = self.commit();
        if matches!(ev, StepEvent::Halted) {
            // Drain every committed store (console output included) before
            // declaring the program finished.
            while self.sq.oldest_senior().is_some() {
                if let Some(t) = self.drain_stores(bus) {
                    return StepEvent::Trapped(t);
                }
            }
            return ev;
        }
        if !matches!(ev, StepEvent::None) {
            return ev;
        }
        // 3. drain senior stores.
        if let Some(t) = self.drain_stores(bus) {
            return StepEvent::Trapped(t);
        }
        // 4. issue/execute.
        self.issue(bus);
        // 5. rename/dispatch.
        self.dispatch();
        // 6. fetch.
        self.fetch(bus);
        StepEvent::None
    }

    // ------------------------------------------------------------------
    // writeback
    // ------------------------------------------------------------------

    fn rob_index_of(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        if idx < self.rob.len() && self.rob[idx].seq == seq {
            Some(idx)
        } else {
            None
        }
    }

    fn writeback(&mut self) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.events.len() {
            if self.events[i].at <= now {
                let e = self.events.swap_remove(i);
                if let Some(idx) = self.rob_index_of(e.seq) {
                    // Loads deliver from the (injectable) LQ data field.
                    let mut from_lq_taint = false;
                    let (value, vtaint) = if e.from_lq != QNONE {
                        let lqe = &self.lq.entries[e.from_lq as usize];
                        if lqe.valid && lqe.seq == e.seq {
                            from_lq_taint = lqe.data_taint != 0;
                            (lqe.data, lqe.data_taint)
                        } else {
                            (e.result, e.taint)
                        }
                    } else {
                        (e.result, e.taint)
                    };
                    let (pdst, rob_base) = {
                        let ent = &mut self.rob[idx];
                        ent.state = EState::Done;
                        ent.result = value;
                        ent.result_taint |= vtaint | if ent.ctl_taint { !0 } else { 0 };
                        (ent.pdst, idx)
                    };
                    // Apply a pending ROB-result fault the moment the value
                    // lands in the entry.
                    self.apply_rob_flip(rob_base);
                    if self.lanes.is_some() {
                        let slot = (e.seq % self.cfg.rob_entries as u64) as u16;
                        let pd = if pdst == PNONE { None } else { Some(pdst) };
                        let le = self.lanes.as_deref_mut().unwrap();
                        le.writeback(e.seq, slot, pd, false);
                        if let Some(p) = pd {
                            le.note_reg_write(false, p);
                        }
                    }
                    let result = self.rob[rob_base].result;
                    let rtaint = self.rob[rob_base].result_taint;
                    if pdst != PNONE {
                        self.prf.write(pdst, result);
                        self.prf.set_ready(pdst, true);
                        self.prf.set_taint(pdst, rtaint);
                    }
                    if let Some(tp) = self.taint.as_deref_mut() {
                        if from_lq_taint {
                            tp.tracer.hop(now, T_LQ, T_ROB);
                        }
                        if rtaint != 0 && pdst != PNONE {
                            tp.tracer.hop(now, T_ROB, T_PRF);
                        }
                    }
                    if let Some(p) = self.pipe.as_deref_mut() {
                        p.complete(e.seq, now);
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    fn apply_rob_flip(&mut self, idx: usize) {
        if let Some((slot, bit)) = self.rob_flip {
            let cap = self.cfg.rob_entries as u64;
            let ent_seq = self.rob[idx].seq;
            if ent_seq % cap == slot {
                self.rob[idx].result ^= 1 << bit;
                self.rob[idx].result_taint |= 1 << bit;
                self.rob_flip = None;
                if let Some((_, f)) = &mut self.rob_armed {
                    *f = FaultFate::Read;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit(&mut self) -> StepEvent {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { return StepEvent::None };
            if head.state != EState::Done {
                return StepEvent::None;
            }
            // External interrupt: accept at macro boundaries.
            if self.irq_pending && !self.in_irq && head.first_of_macro && head.trap.is_none() {
                let resume = head.pc;
                self.in_irq = true;
                self.iret_pc = resume;
                self.flush_to(marvel_ir::memmap::IRQ_VECTOR);
                return StepEvent::None;
            }
            let ent = self.rob.front().unwrap().clone();
            if let Some(t) = ent.trap {
                self.log_effect(&ent, Some(t));
                return StepEvent::Trapped(t);
            }
            // Memory-ordering replay: squash from this load (inclusive)
            // and refetch it; the conflicting older store has retired.
            if ent.replay {
                self.stats.replays += 1;
                let pc = ent.pc;
                self.mdp[(pc >> 2) as usize & 1023] = true;
                self.flush_to(pc);
                return StepEvent::None;
            }

            // marvel-taint: a tainted value retiring into architectural
            // state (register write or control-flow decision). Stores are
            // attributed at drain time instead, where the bytes land.
            let tainted_commit = ent.result_taint != 0 || ent.ctl_taint;
            if tainted_commit {
                let arch = ent.pdst != PNONE || op_tag(ent.uop.op) == 4;
                if let Some(tp) = self.taint.as_deref_mut() {
                    if arch {
                        tp.tracer.arch_reach(self.cycle, T_ROB);
                    }
                }
            }
            if let Some(p) = self.pipe.as_deref_mut() {
                p.commit(ent.seq, self.cycle, tainted_commit);
            }

            // Architectural effects.
            if ent.pdst != PNONE {
                let prev = ent.prev_pdst;
                self.retire.set(ent.uop.rd, ent.pdst);
                if prev != PNONE && prev != 0 {
                    self.freelist.release(prev);
                }
            }
            if ent.uop.op.is_store() && ent.sq != QNONE {
                self.sq.entries[ent.sq as usize].senior = true;
                self.stats.stores += 1;
            }
            if ent.uop.op.is_load() && ent.lq != QNONE {
                self.lq.free(ent.lq as usize);
                self.stats.loads += 1;
            }

            // Commit trace (HVF stream).
            let tag = op_tag(ent.uop.op);
            if tag <= 4 && !matches!(ent.uop.op, Op::Nop) {
                let rec = CommitRecord {
                    pc: ent.pc,
                    kind: tag,
                    result: if tag == 4 { ent.actual_next } else { ent.result },
                    addr: ent.mem_addr,
                };
                match &self.trace_mode {
                    TraceMode::Off => {}
                    TraceMode::Record => self.trace.push(rec),
                    TraceMode::Check(golden) => {
                        if self.divergence.is_none() && golden.get(self.trace_pos) != Some(&rec) {
                            self.divergence = Some(self.trace_pos as u64);
                        }
                    }
                }
                // Counted in every mode, so a ladder rung frozen from the
                // recording golden run carries its position in the trace.
                self.trace_pos += 1;
            }

            if let Some(le) = self.lanes.as_deref_mut() {
                // Only tags 1-3 put the result field into the commit
                // record (tag 4 records `actual_next`, which carries no
                // diff for live lanes); a nonzero entry diff on one of
                // those is a committed-stream divergence.
                le.commit(ent.seq, (1..=3).contains(&tag) && !matches!(ent.uop.op, Op::Nop));
            }

            self.log_effect(&ent, None);

            self.stats.committed_uops += 1;
            if ent.last_of_macro {
                self.stats.committed_macros += 1;
            }

            // Simulation markers.
            match ent.uop.op {
                Op::Halt => {
                    self.rob.pop_front();
                    return StepEvent::Halted;
                }
                Op::Checkpoint => {
                    self.rob.pop_front();
                    return StepEvent::CheckpointHit;
                }
                Op::SwitchCpu => {
                    self.rob.pop_front();
                    return StepEvent::SwitchCpuHit;
                }
                Op::Iret => {
                    let target = self.iret_pc;
                    self.in_irq = false;
                    self.rob.pop_front();
                    self.flush_to(target);
                    return StepEvent::None;
                }
                _ => {}
            }

            // Control-flow validation (commit-time squash).
            if ent.uop.op.is_control() && ent.last_of_macro {
                self.stats.branches += 1;
                let mispredicted = ent.actual_next != ent.predicted_next;
                if let Op::Branch(_) = ent.uop.op {
                    self.bp.train(ent.pc, ent.taken, mispredicted);
                }
                self.rob.pop_front();
                if mispredicted {
                    self.stats.mispredicts += 1;
                    let t = ent.actual_next;
                    self.flush_to(t);
                    return StepEvent::None;
                }
                continue;
            }

            self.rob.pop_front();
        }
        StepEvent::None
    }

    /// Full pipeline flush; resume fetching at `pc`.
    fn flush_to(&mut self, pc: u64) {
        self.stats.flushes += 1;
        if let Some(le) = self.lanes.as_deref_mut() {
            // Every in-flight diff is squashed with the pipeline; register
            // diffs and deferred ROB arms survive, like scalar state.
            le.flush();
        }
        // In-flight destination registers become ready (the free list is
        // rebuilt below).
        for e in &self.rob {
            if e.pdst != PNONE && e.pdst != 0 {
                self.prf.set_ready(e.pdst, true);
            }
        }
        self.rob.clear();
        self.iq.clear();
        self.events.clear();
        self.pending_loads.clear();
        self.lq.clear();
        self.sq.squash_after(0);
        self.rename.copy_from(&self.retire);
        // Rebuild the free list from the retirement map to stay consistent
        // even after rename-map fault injection.
        self.freelist.rebuild(self.cfg.int_prf as u16, self.retire.entries());
        // Speculative rename corruption is wiped by the copy above.
        if let Some(tp) = self.taint.as_deref_mut() {
            tp.rename.iter_mut().for_each(|t| *t = false);
        }
        self.fq.clear();
        self.fetch_pc = pc;
        self.fetch_halted = false;
        self.fetch_stall_until = 0;
    }

    // ------------------------------------------------------------------
    // store drain
    // ------------------------------------------------------------------

    fn drain_stores(&mut self, bus: &mut dyn Bus) -> Option<Trap> {
        for _ in 0..self.isa.store_drain_per_cycle() {
            let idx = self.sq.oldest_senior()?;
            let mut e = self.sq.entries[idx];
            // A fault-corrupted width field saturates at the bus width.
            e.size = e.size.clamp(1, 8);
            // A store with tainted data or a tainted address commits the
            // corruption to architectural memory (or a device).
            let drain_taint = e.data_taint | if e.addr_taint != 0 { !0 } else { 0 };
            if e.device || bus.is_device(e.addr) {
                if bus.device_write(e.addr, e.size, e.data).is_none() {
                    return Some(Trap::MemFault { pc: 0, addr: e.addr });
                }
                if drain_taint != 0 {
                    if let Some(tp) = self.taint.as_deref_mut() {
                        tp.tracer.hop(self.cycle, T_SQ, T_CONSOLE);
                        tp.tracer.arch_reach(self.cycle, T_SQ);
                    }
                }
            } else if bus.is_cacheable(e.addr)
                && bus.is_cacheable(e.addr + e.size.saturating_sub(1) as u64)
            {
                self.data_write(bus, e.addr, e.size, e.data);
                if self.l1d.taint_on() {
                    self.data_write_taint(e.addr, e.size, drain_taint);
                    if drain_taint != 0 {
                        if let Some(tp) = self.taint.as_deref_mut() {
                            tp.tracer.hop(self.cycle, T_SQ, T_L1D);
                            tp.tracer.arch_reach(self.cycle, T_SQ);
                        }
                    }
                }
            } else {
                // A fault-corrupted committed store aimed outside every
                // mapped range: machine-check-style crash.
                return Some(Trap::MemFault { pc: 0, addr: e.addr });
            }
            self.sq.free(idx);
        }
        None
    }

    // ------------------------------------------------------------------
    // cache plumbing
    // ------------------------------------------------------------------

    /// Ensure the line holding `addr` is resident in L1 (`icache` selects
    /// L1I/L1D); returns total access latency.
    fn ensure_line(&mut self, bus: &mut dyn Bus, addr: u64, icache: bool) -> Option<u32> {
        let line = self.cfg.l1d.line as u64;
        let laddr = addr & !(line - 1);
        let (l1, l1_lat) = if icache {
            (&mut self.l1i, self.cfg.l1i.latency)
        } else {
            (&mut self.l1d, self.cfg.l1d.latency)
        };
        if l1.lookup(laddr).is_some() {
            l1.hits += 1;
            return Some(l1_lat);
        }
        l1.misses += 1;
        let taint_on = self.l2.taint_on();
        let l1_name = if icache { T_L1I } else { T_L1D };
        // L2 lookup.
        let mut lat = l1_lat + self.cfg.l2.latency;
        let mut buf = vec![0u8; line as usize];
        // Shadow bytes travelling with `buf` into the L1 (marvel-taint).
        let mut shadow_in: Vec<u8> = Vec::new();
        if let Some(way) = self.l2.lookup(laddr) {
            self.l2.hits += 1;
            let bytes = self.l2.line_bytes(laddr, way, 0, line as usize);
            buf.copy_from_slice(bytes);
            if taint_on {
                shadow_in = self.l2.taint_line(laddr, way).map(|s| s.to_vec()).unwrap_or_default();
            }
        } else {
            self.l2.misses += 1;
            lat += self.cfg.mem_latency;
            if !bus.read_line(laddr, &mut buf) {
                return None;
            }
            let evict_shadow = if taint_on { self.l2.taint_prepare_fill(laddr) } else { None };
            if let Some((eaddr, edata)) = self.l2.fill(laddr, &buf) {
                let _ = bus.write_line(eaddr, &edata);
                if let Some(es) = &evict_shadow {
                    bus.taint_write_line(eaddr, es);
                    if es.iter().any(|&b| b != 0) {
                        self.taint_hop(T_L2, T_RAM);
                    }
                }
            }
            if taint_on {
                shadow_in = vec![0u8; line as usize];
                bus.taint_read_line(laddr, &mut shadow_in);
                if shadow_in.iter().any(|&b| b != 0) {
                    self.taint_hop(T_RAM, T_L2);
                }
                if let Some(way) = self.l2.probe(laddr) {
                    self.l2.set_taint_line(laddr, way, &shadow_in);
                    // Re-read so L2 stuck-at taint rides along into L1.
                    if let Some(s) = self.l2.taint_line(laddr, way) {
                        shadow_in = s.to_vec();
                    }
                }
            }
        }
        let evict1_shadow = if taint_on {
            let l1 = if icache { &self.l1i } else { &self.l1d };
            l1.taint_prepare_fill(laddr)
        } else {
            None
        };
        let l1 = if icache { &mut self.l1i } else { &mut self.l1d };
        if let Some((eaddr, edata)) = l1.fill(laddr, &buf) {
            // Write back dirty L1 victim into L2 (allocate on writeback).
            if let Some(way) = self.l2.lookup(eaddr) {
                let line_sz = edata.len();
                for (i, chunk) in edata.chunks(8).enumerate() {
                    let mut v = [0u8; 8];
                    v[..chunk.len()].copy_from_slice(chunk);
                    self.l2.write(eaddr + (i * 8) as u64, chunk.len(), u64::from_le_bytes(v), way);
                }
                let _ = line_sz;
                if let Some(es) = &evict1_shadow {
                    for (i, chunk) in es.chunks(8).enumerate() {
                        let mut v = [0u8; 8];
                        v[..chunk.len()].copy_from_slice(chunk);
                        self.l2.taint_write(
                            eaddr + (i * 8) as u64,
                            chunk.len(),
                            u64::from_le_bytes(v),
                            way,
                        );
                    }
                    if es.iter().any(|&b| b != 0) {
                        self.taint_hop(l1_name, T_L2);
                    }
                }
            } else {
                let evict2_shadow = if taint_on { self.l2.taint_prepare_fill(eaddr) } else { None };
                if let Some((e2, d2)) = self.l2.fill(eaddr, &edata) {
                    let _ = bus.write_line(e2, &d2);
                    if let Some(es2) = &evict2_shadow {
                        bus.taint_write_line(e2, es2);
                        if es2.iter().any(|&b| b != 0) {
                            self.taint_hop(T_L2, T_RAM);
                        }
                    }
                }
                if taint_on {
                    if let Some(way) = self.l2.probe(eaddr) {
                        let zeros;
                        let es: &[u8] = match &evict1_shadow {
                            Some(es) => es,
                            None => {
                                zeros = vec![0u8; line as usize];
                                &zeros
                            }
                        };
                        self.l2.set_taint_line(eaddr, way, es);
                    }
                    if evict1_shadow.as_ref().is_some_and(|es| es.iter().any(|&b| b != 0)) {
                        self.taint_hop(l1_name, T_L2);
                    }
                }
            }
        }
        if taint_on {
            let l1 = if icache { &self.l1i } else { &self.l1d };
            if let Some(way) = l1.probe(laddr) {
                let l1 = if icache { &mut self.l1i } else { &mut self.l1d };
                l1.set_taint_line(laddr, way, &shadow_in);
                if shadow_in.iter().any(|&b| b != 0) {
                    self.taint_hop(T_L2, l1_name);
                }
            }
        }
        Some(lat)
    }

    fn taint_hop(&mut self, from: &'static str, to: &'static str) {
        if let Some(tp) = self.taint.as_deref_mut() {
            tp.tracer.hop(self.cycle, from, to);
        }
    }

    /// Shadow counterpart of [`data_read`](Self::data_read): gather the
    /// taint mask of `size` resident bytes. Purely observational (uses
    /// `probe`, never touches replacement or fault state).
    fn data_read_taint(&self, addr: u64, size: u8) -> u64 {
        if !self.l1d.taint_on() {
            return 0;
        }
        let line = self.cfg.l1d.line as u64;
        let end = addr + size as u64;
        let mut out: u64 = 0;
        let mut shift = 0;
        let mut a = addr;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            if let Some(way) = self.l1d.probe(a & !(line - 1)) {
                out |= self.l1d.taint_read(a, n, way) << shift;
            }
            shift += 8 * n;
            a = seg_end;
        }
        out
    }

    /// Shadow counterpart of [`data_write`](Self::data_write) (lines are
    /// resident after the data write; a rare cross-line eviction between
    /// the two passes loses taint conservatively).
    fn data_write_taint(&mut self, addr: u64, size: u8, mask: u64) {
        if !self.l1d.taint_on() {
            return;
        }
        let line = self.cfg.l1d.line as u64;
        let end = addr + size as u64;
        let mut a = addr;
        let mut m = mask;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            if let Some(way) = self.l1d.probe(a & !(line - 1)) {
                self.l1d.taint_write(a, n, m, way);
            }
            m = if n < 8 { m >> (8 * n) } else { 0 };
            a = seg_end;
        }
    }

    /// Read `size` bytes from the (resident) L1D, splitting across lines
    /// for misaligned x86 accesses.
    fn data_read(&mut self, bus: &mut dyn Bus, addr: u64, size: u8) -> Option<(u64, u32)> {
        let line = self.cfg.l1d.line as u64;
        let mut lat = 0;
        let end = addr + size as u64;
        let mut out: u64 = 0;
        let mut shift = 0;
        let mut a = addr;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            lat = lat.max(self.ensure_line(bus, a, false)?);
            let way = self.l1d.lookup(a & !(line - 1))?;
            let v = self.l1d.read(a, n, way);
            out |= v << shift;
            shift += 8 * n;
            a = seg_end;
        }
        Some((out, lat))
    }

    fn data_write(&mut self, bus: &mut dyn Bus, addr: u64, size: u8, val: u64) -> Option<u32> {
        let line = self.cfg.l1d.line as u64;
        let mut lat = 0;
        let end = addr + size as u64;
        let mut a = addr;
        let mut v = val;
        while a < end {
            let seg_end = ((a & !(line - 1)) + line).min(end);
            let n = (seg_end - a) as usize;
            lat = lat.max(self.ensure_line(bus, a, false)?);
            let way = self.l1d.lookup(a & !(line - 1))?;
            self.l1d.write(a, n, v, way);
            v = if n < 8 { v >> (8 * n) } else { 0 };
            a = seg_end;
        }
        Some(lat)
    }

    // ------------------------------------------------------------------
    // issue/execute
    // ------------------------------------------------------------------

    fn operand(&mut self, p: u16) -> u64 {
        if p == PNONE {
            0
        } else {
            if let Some(le) = self.lanes.as_deref_mut() {
                le.note_reg_read(false, p);
            }
            self.prf.read(p)
        }
    }

    fn operand_taint(&self, p: u16) -> u64 {
        if p == PNONE {
            0
        } else {
            self.prf.taint_of(p)
        }
    }

    fn issue(&mut self, bus: &mut dyn Bus) {
        let mut alu_left = self.cfg.n_alu;
        let mut mem_left = self.cfg.n_mem_ports;

        // Deferred load accesses first (they own the L1D ports this cycle),
        // in queue order. In place: entries not yet due move down to the
        // front, a retried access is appended past the original entries,
        // and the gap left by the due ones is closed at the end.
        let queued = self.pending_loads.len();
        let mut kept = 0;
        for i in 0..queued {
            let (at, seq) = self.pending_loads[i];
            if at > self.cycle {
                self.pending_loads[kept] = (at, seq);
                kept += 1;
                continue;
            }
            if mem_left == 0 {
                self.pending_loads.push((self.cycle + 1, seq));
                continue;
            }
            if self.finish_load_access(bus, seq) {
                mem_left -= 1;
            } else {
                self.pending_loads.push((self.cycle + REQUEST_DELAY, seq));
            }
        }
        self.pending_loads.drain(kept..queued);
        let mut issued = 0usize;
        let mut i = 0;
        // IQ is kept in ascending seq order (oldest first).
        while i < self.iq.len() && issued < self.cfg.issue_width {
            let seq = self.iq[i];
            let Some(idx) = self.rob_index_of(seq) else {
                self.iq.remove(i);
                continue;
            };
            let ent = self.rob[idx].clone();
            let ready = ent.psrc.iter().all(|&p| p == PNONE || self.prf.is_ready(p));
            if !ready {
                i += 1;
                continue;
            }
            let is_mem = ent.uop.op.is_load() || ent.uop.op.is_store();
            let needs_muldiv = matches!(ent.uop.op, Op::Alu(o) | Op::AluImm(o) if o.needs_muldiv_unit());
            if is_mem {
                // Address generation borrows an ALU; the L1D ports are
                // consumed by the deferred accesses above.
                if alu_left == 0 {
                    i += 1;
                    continue;
                }
            } else if needs_muldiv {
                if self.muldiv_free_at > self.cycle {
                    i += 1;
                    continue;
                }
            } else if alu_left == 0 {
                i += 1;
                continue;
            }

            let fired = if is_mem {
                let ok = self.issue_mem(bus, idx);
                if ok {
                    alu_left -= 1;
                }
                ok
            } else {
                if needs_muldiv {
                    let lat = match ent.uop.op {
                        Op::Alu(o) | Op::AluImm(o) => o.latency(),
                        _ => 1,
                    };
                    self.muldiv_free_at = self.cycle + lat as u64;
                } else {
                    alu_left -= 1;
                }
                self.issue_alu(idx);
                true
            };
            if fired {
                self.iq.remove(i);
                issued += 1;
            } else {
                i += 1;
            }
        }
    }

    fn issue_alu(&mut self, idx: usize) {
        let ent = self.rob[idx].clone();
        let a = self.operand(ent.psrc[0]);
        let b = self.operand(ent.psrc[1]);
        let (result, next, taken, trap, lat) = self.exec_alu(&ent, a, b);
        if self.lanes.is_some() {
            self.lane_issue_alu(&ent, a, b, result, trap);
        }
        let taint = if self.taint.is_some() {
            let ta = self.operand_taint(ent.psrc[0]);
            let tb = self.operand_taint(ent.psrc[1]);
            let t = alu_result_taint(&ent.uop, ta, tb, b);
            if (ta | tb) != 0 {
                self.taint_hop(T_PRF, T_ROB);
            }
            t
        } else {
            0
        };
        let e = &mut self.rob[idx];
        e.state = EState::Executing;
        e.actual_next = next;
        e.taken = taken;
        e.trap = e.trap.or(trap);
        let seq = e.seq;
        self.events.push(Event { at: self.cycle + lat as u64, seq, result, from_lq: QNONE, taint });
        if let Some(p) = self.pipe.as_deref_mut() {
            p.issue(seq, self.cycle);
        }
    }

    /// Lane overlay for [`issue_alu`](Self::issue_alu): propagate operand
    /// diffs into a result diff attached to the execute event, or fork
    /// lanes whose divergence reaches control flow or a trap decision.
    fn lane_issue_alu(&mut self, ent: &RobEntry, a: u64, b: u64, golden: u64, trap: Option<Trap>) {
        let le = self.lanes.as_deref_mut().unwrap();
        let src = |p: u16| if p == PNONE { None } else { Some(p) };
        let (da, dam) = le.operand_diffs(false, src(ent.psrc[0]));
        let (db, dbm) = le.operand_diffs(false, src(ent.psrc[1]));
        if (dam | dbm) & le.live == 0 {
            return;
        }
        match ent.uop.op {
            Op::Alu(op) | Op::AluImm(op) => {
                if trap.is_some() {
                    // Golden divided by zero here: an operand diff could
                    // turn the trap into a value (or vice versa) — the
                    // data-flow overlay cannot express that.
                    le.fork(dam | dbm, ForkCause::Trap);
                    return;
                }
                let (diff, nz) = if matches!(ent.uop.op, Op::Alu(_)) {
                    le.alu(op, a, b, golden, &da, dam, &db, dbm)
                } else {
                    le.alu(op, a, ent.uop.imm as u64, golden, &da, dam, &[0; 64], 0)
                };
                le.push_event(ent.seq, diff, nz);
            }
            Op::MovK(sh) => {
                let keep = !(0xFFFFu64 << sh);
                let mut diff = [0u64; 64];
                let mut nz = 0u64;
                for l in each_lane(dam & le.live) {
                    diff[l] = da[l] & keep;
                    if diff[l] != 0 {
                        nz |= 1 << l;
                    }
                }
                le.push_event(ent.seq, diff, nz);
            }
            // Result and next-PC derive from the PC alone: no register
            // diff can flow in.
            Op::LoadImm | Op::Auipc | Op::LinkAddr | Op::Jal => {}
            // Any diff on the target register moves the jump target.
            Op::Jalr => le.fork(dam, ForkCause::Jump),
            Op::Branch(c) => {
                // Fork exactly the lanes whose branch outcome flips; a
                // diff that leaves the decision unchanged never escapes
                // (branches produce no result).
                let golden_taken = c.eval(a, b);
                let flips = each_lane((dam | dbm) & le.live)
                    .filter(|&l| c.eval(a ^ da[l], b ^ db[l]) != golden_taken)
                    .fold(0, |m, l| m | 1 << l);
                le.fork(flips, ForkCause::Branch);
            }
            // Nothing else reaches issue_alu with register operands.
            _ => {}
        }
    }

    fn exec_alu(&mut self, ent: &RobEntry, a: u64, b: u64) -> (u64, u64, bool, Option<Trap>, u32) {
        let u = &ent.uop;
        let fallthrough = ent.pc.wrapping_add(ent.macro_len as u64);
        match u.op {
            Op::Alu(op) => match op.eval(a, b, self.isa) {
                Some(v) => (v, fallthrough, false, None, op.latency()),
                None => (0, fallthrough, false, Some(Trap::DivideByZero { pc: ent.pc }), 1),
            },
            Op::AluImm(op) => match op.eval(a, u.imm as u64, self.isa) {
                Some(v) => (v, fallthrough, false, None, op.latency()),
                None => (0, fallthrough, false, Some(Trap::DivideByZero { pc: ent.pc }), 1),
            },
            Op::LoadImm => (u.imm as u64, fallthrough, false, None, 1),
            Op::MovK(sh) => {
                let mask = 0xFFFFu64 << sh;
                ((a & !mask) | (((u.imm as u64) & 0xFFFF) << sh), fallthrough, false, None, 1)
            }
            Op::Auipc => (ent.pc.wrapping_add(u.imm as u64), fallthrough, false, None, 1),
            Op::LinkAddr => (fallthrough, fallthrough, false, None, 1),
            Op::Jal => (fallthrough, ent.pc.wrapping_add(u.imm as u64), true, None, 1),
            Op::Jalr => (fallthrough, a.wrapping_add(u.imm as u64), true, None, 1),
            Op::Branch(c) => {
                let taken = c.eval(a, b);
                let next = if taken { ent.pc.wrapping_add(u.imm as u64) } else { fallthrough };
                (0, next, taken, None, 1)
            }
            _ => (0, fallthrough, false, None, 1),
        }
    }

    /// Try to issue a memory micro-op; returns `false` to retry later.
    fn issue_mem(&mut self, bus: &mut dyn Bus, idx: usize) -> bool {
        let ent = self.rob[idx].clone();
        let base = self.operand(ent.psrc[0]);
        let index = self.operand(ent.psrc[1]);
        let addr = if ent.uop.reg_offset {
            base.wrapping_add(index)
        } else {
            base.wrapping_add(ent.uop.imm as u64)
        };
        // Tainted base/index bits can move the effective address anywhere
        // above the lowest tainted bit: conservative arithmetic spread.
        let addr_taint = if self.taint.is_some() {
            let t = self.operand_taint(ent.psrc[0])
                | if ent.uop.reg_offset { self.operand_taint(ent.psrc[1]) } else { 0 };
            alu_taint(TaintAluKind::Arith, t, 0, 0) | if ent.ctl_taint { !0 } else { 0 }
        } else {
            0
        };
        if let Some(le) = self.lanes.as_deref_mut() {
            // A diff feeding the effective address moves the access: the
            // overlay cannot follow a lane to a different location.
            let mut m = if ent.psrc[0] == PNONE { 0 } else { le.reg_mask(false, ent.psrc[0]) };
            if ent.uop.reg_offset && ent.psrc[1] != PNONE {
                m |= le.reg_mask(false, ent.psrc[1]);
            }
            le.fork(m, ForkCause::Address);
        }

        let (w, is_load) = match ent.uop.op {
            Op::Load { w, .. } => (w, true),
            Op::Store { w } => (w, false),
            _ => unreachable!("issue_mem on non-memory uop"),
        };
        let size = w.bytes() as u8;
        let seq = ent.seq;

        // Alignment / mapping checks produce precise traps.
        let misaligned = addr % size as u64 != 0;
        let device = bus.is_device(addr);
        let mapped = device || (bus.is_cacheable(addr) && bus.is_cacheable(addr + size as u64 - 1));
        let mut trap = None;
        if misaligned && self.isa.traps_on_misaligned() {
            trap = Some(Trap::Misaligned { pc: ent.pc, addr });
        } else if !mapped {
            trap = Some(Trap::MemFault { pc: ent.pc, addr });
        }
        if let Some(t) = trap {
            let e = &mut self.rob[idx];
            e.trap = Some(t);
            e.state = EState::Done;
            e.mem_addr = addr;
            if is_load && e.lq != QNONE {
                let lqe = &mut self.lq.entries[e.lq as usize];
                lqe.addr = addr;
                lqe.addr_ready = true;
                lqe.size = size;
                lqe.done = true;
            }
            if !is_load && e.sq != QNONE {
                let sqe = &mut self.sq.entries[e.sq as usize];
                sqe.addr = addr;
                sqe.addr_ready = true;
                sqe.size = size;
                sqe.data_ready = true;
            }
            return true;
        }

        if is_load {
            // AGU phase: buffer the request in the LQ (LSQ request
            // buffering). The cache access happens REQUEST_DELAY cycles
            // later *through the buffered — injectable — bits*, so the
            // request stays architecturally live in the queue, as in
            // gem5's LSQ.
            // Loads issue speculatively past older stores with unknown
            // addresses and rely on store-snoop replay, unless the
            // memory-dependence predictor has seen this PC violate.
            if self.mdp[(ent.pc >> 2) as usize & 1023] && self.sq.older_unknown_addr(seq) {
                return false;
            }
            if ent.lq != QNONE {
                let lqe = &mut self.lq.entries[ent.lq as usize];
                lqe.addr = addr;
                lqe.addr_ready = true;
                lqe.size = size;
                lqe.addr_taint |= addr_taint;
            }
            if addr_taint != 0 {
                self.taint_hop(T_PRF, T_LQ);
            }
            {
                let e = &mut self.rob[idx];
                e.state = EState::Executing;
                e.mem_addr = addr;
            }
            self.pending_loads.push((self.cycle + REQUEST_DELAY, seq));
            if let Some(p) = self.pipe.as_deref_mut() {
                p.issue(seq, self.cycle);
            }
            true
        } else {
            // Store: snoop the LQ for younger loads that already executed
            // to an overlapping address — a memory-ordering violation;
            // they must replay (gem5 O3's LSQ violation check).
            let lo = addr;
            let hi = addr + size as u64;
            for li in 0..self.lq.entries.len() {
                let l = &self.lq.entries[li];
                let violates = l.valid && l.seq > seq && l.addr_ready && l.done && {
                    let llo = l.addr;
                    let lhi = l.addr + l.size.clamp(1, 8) as u64;
                    llo < hi && lo < lhi
                };
                if violates {
                    if let Some(vidx) = self.rob_index_of(l.seq) {
                        self.rob[vidx].replay = true;
                    }
                }
            }
            // Capture address and data into the SQ.
            let data = self.operand(ent.psrc[2]);
            if let Some(le) = self.lanes.as_deref_mut() {
                // Diverged store data would land in golden memory.
                if ent.psrc[2] != PNONE {
                    let m = le.reg_mask(false, ent.psrc[2]);
                    le.fork(m, ForkCause::StoreData);
                }
            }
            let data_taint = if self.taint.is_some() {
                self.operand_taint(ent.psrc[2]) | if ent.ctl_taint { !0 } else { 0 }
            } else {
                0
            };
            let e = &mut self.rob[idx];
            e.mem_addr = addr;
            e.state = EState::Done;
            e.result = data;
            e.result_taint |= data_taint;
            if e.sq != QNONE {
                let sqe = &mut self.sq.entries[e.sq as usize];
                sqe.addr = addr;
                sqe.addr_ready = true;
                sqe.size = size;
                sqe.data = data;
                sqe.data_ready = true;
                sqe.device = device;
                sqe.addr_taint |= addr_taint;
                sqe.data_taint |= data_taint;
            }
            if addr_taint != 0 || data_taint != 0 {
                self.taint_hop(T_PRF, T_SQ);
            }
            if let Some(p) = self.pipe.as_deref_mut() {
                p.issue(seq, self.cycle);
            }
            true
        }
    }

    /// Perform the deferred cache access of a load through its buffered
    /// LQ request bits. Returns `false` when the access must be retried
    /// (store-forwarding conflict not yet drained).
    fn finish_load_access(&mut self, bus: &mut dyn Bus, seq: u64) -> bool {
        let Some(idx) = self.rob_index_of(seq) else { return true }; // squashed
        let ent = self.rob[idx].clone();
        if ent.state != EState::Executing {
            return true;
        }
        let (eff_addr, eff_size) = if ent.lq != QNONE {
            let lqe = self.lq.entries[ent.lq as usize];
            if !lqe.valid || lqe.seq != seq {
                return true; // entry lost to a fault: writeback never comes
            }
            (lqe.addr, lqe.size.clamp(1, 8))
        } else {
            (ent.mem_addr, 8)
        };
        // Re-validate: the buffered request may have been corrupted.
        if eff_addr % eff_size.max(1) as u64 != 0 && self.isa.traps_on_misaligned() {
            let e = &mut self.rob[idx];
            e.trap = Some(Trap::Misaligned { pc: ent.pc, addr: eff_addr });
            e.state = EState::Done;
            return true;
        }
        let device = bus.is_device(eff_addr);
        let (raw, raw_taint, lat) = match self.sq.forwarding_candidate(seq, eff_addr, eff_size) {
            Some((sidx, covers)) => {
                let se = self.sq.entries[sidx];
                if !covers || !se.data_ready {
                    return false; // partial overlap: wait for drain
                }
                let shift = (eff_addr - se.addr) * 8;
                let t = (se.data_taint >> shift) | if se.addr_taint != 0 { !0 } else { 0 };
                if t != 0 {
                    self.taint_hop(T_SQ, T_LQ);
                }
                (se.data >> shift, t, 1u32)
            }
            None => {
                if device {
                    match bus.device_read(eff_addr, eff_size) {
                        Some(v) => (v, 0, 10),
                        None => {
                            let e = &mut self.rob[idx];
                            e.trap = Some(Trap::MemFault { pc: ent.pc, addr: eff_addr });
                            e.state = EState::Done;
                            return true;
                        }
                    }
                } else if !bus.is_cacheable(eff_addr)
                    || !bus.is_cacheable(eff_addr + eff_size as u64 - 1)
                {
                    let e = &mut self.rob[idx];
                    e.trap = Some(Trap::MemFault { pc: ent.pc, addr: eff_addr });
                    e.state = EState::Done;
                    return true;
                } else {
                    match self.data_read(bus, eff_addr, eff_size) {
                        Some((v, lat)) => {
                            let t = self.data_read_taint(eff_addr, eff_size);
                            if t != 0 {
                                self.taint_hop(T_L1D, T_LQ);
                            }
                            (v, t, lat)
                        }
                        None => {
                            let e = &mut self.rob[idx];
                            e.trap = Some(Trap::MemFault { pc: ent.pc, addr: eff_addr });
                            e.state = EState::Done;
                            return true;
                        }
                    }
                }
            }
        };
        let value = match ent.uop.op {
            Op::Load { w, signed } => {
                let mut raw_masked = raw;
                if eff_size as u64 != w.bytes() {
                    let bits = (eff_size as u32 * 8).min(63);
                    raw_masked &= (1u64 << bits) - 1;
                }
                w.extend(raw_masked, signed)
            }
            _ => raw,
        };
        // marvel-taint: mask the shadow like the value, then account for
        // sign-extension (a tainted sign bit taints every upper bit) and
        // a tainted request address (any byte could have been fetched).
        let value_taint = if self.taint.is_some() {
            let mut t = raw_taint;
            if let Op::Load { signed, .. } = ent.uop.op {
                if eff_size < 8 {
                    let bits = eff_size as u32 * 8;
                    t &= (1u64 << bits) - 1;
                    if signed && t & (1u64 << (bits - 1)) != 0 {
                        t |= !0u64 << (bits - 1);
                    }
                }
            }
            let addr_t = if ent.lq != QNONE { self.lq.entries[ent.lq as usize].addr_taint } else { 0 };
            t | if addr_t != 0 || ent.ctl_taint { !0 } else { 0 }
        } else {
            0
        };
        let e = &mut self.rob[idx];
        e.mem_addr = eff_addr;
        let from_lq = e.lq;
        if e.lq != QNONE {
            let lqe = &mut self.lq.entries[e.lq as usize];
            lqe.done = true;
            lqe.data = value;
            // The access overwrites the buffered data field, taint included
            // (an earlier flip into it is masked by the fresh value).
            lqe.data_taint = value_taint;
        }
        self.events.push(Event {
            at: self.cycle + lat as u64,
            seq,
            result: value,
            from_lq,
            taint: value_taint,
        });
        true
    }

    // ------------------------------------------------------------------
    // rename / dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let spec = self.isa.reg_spec();
        let zero = spec.zero;
        let mut width = self.cfg.issue_width;
        while width > 0 && !self.fq.is_empty() {
            if self.rob.len() >= self.cfg.rob_entries || self.iq.len() >= self.cfg.iq_entries {
                return;
            }
            let fu = self.fq[0];

            // Resource checks before consuming.
            let is_load = fu.uop.op.is_load();
            let is_store = fu.uop.op.is_store();
            let needs_dst = fu.uop.rd != REG_NONE && Some(fu.uop.rd) != zero && fu.trap.is_none();
            if needs_dst && self.freelist.is_empty() {
                return;
            }
            let lq_idx = if is_load && fu.trap.is_none() {
                match self.lq.alloc(self.next_seq) {
                    Some(i) => i as u16,
                    None => return,
                }
            } else {
                QNONE
            };
            let sq_idx = if is_store && fu.trap.is_none() {
                match self.sq.alloc(self.next_seq) {
                    Some(i) => i as u16,
                    None => {
                        if lq_idx != QNONE {
                            self.lq.free(lq_idx as usize);
                        }
                        return;
                    }
                }
            } else {
                QNONE
            };

            self.fq.remove(0);
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut psrc = [PNONE; 3];
            for (k, rs) in [fu.uop.rs1, fu.uop.rs2, fu.uop.rs3].into_iter().enumerate() {
                if rs != REG_NONE {
                    psrc[k] = if Some(rs) == zero { 0 } else { self.rename.get(rs) };
                }
            }
            let (pdst, prev_pdst) = if needs_dst {
                let p = self.freelist.alloc().expect("checked non-empty");
                let prev = self.rename.get(fu.uop.rd);
                self.rename.set(fu.uop.rd, p);
                self.prf.set_ready(p, false);
                (p, prev)
            } else {
                (PNONE, PNONE)
            };

            // marvel-taint: a uop decoded from tainted bytes, or one whose
            // source mapping was corrupted, is suspect end to end.
            let mut ctl_taint = fu.tainted;
            let cyc = self.cycle;
            if let Some(tp) = self.taint.as_deref_mut() {
                if fu.tainted {
                    tp.tracer.hop(cyc, T_DECODE, T_ROB);
                }
                for rs in [fu.uop.rs1, fu.uop.rs2, fu.uop.rs3] {
                    if rs != REG_NONE
                        && Some(rs) != zero
                        && tp.rename.get(rs as usize).copied().unwrap_or(false)
                    {
                        ctl_taint = true;
                        tp.tracer.hop(cyc, T_RENAME, T_ROB);
                    }
                }
                if needs_dst {
                    // A fresh mapping overwrites (masks) a corrupted one.
                    if let Some(t) = tp.rename.get_mut(fu.uop.rd as usize) {
                        *t = false;
                    }
                }
            }

            let needs_exec = fu.trap.is_none()
                && !matches!(fu.uop.op, Op::Halt | Op::Checkpoint | Op::SwitchCpu | Op::Nop | Op::Iret);

            let ent = RobEntry {
                seq,
                uop: fu.uop,
                pc: fu.pc,
                macro_len: fu.macro_len,
                first_of_macro: fu.first_of_macro,
                last_of_macro: fu.last_of_macro,
                predicted_next: fu.predicted_next,
                actual_next: fu.pc.wrapping_add(fu.macro_len as u64),
                taken: false,
                pdst,
                prev_pdst,
                psrc,
                state: if needs_exec { EState::Waiting } else { EState::Done },
                trap: fu.trap,
                lq: lq_idx,
                sq: sq_idx,
                result: 0,
                mem_addr: 0,
                replay: false,
                result_taint: 0,
                ctl_taint,
            };
            self.rob.push_back(ent);
            if let Some(p) = self.pipe.as_deref_mut() {
                p.dispatch(seq, fu.pc, format!("{:?}", fu.uop.op), fu.fetched_at, cyc);
                if !needs_exec {
                    // Markers/traps never issue: close their stages now.
                    p.issue(seq, cyc);
                    p.complete(seq, cyc);
                }
            }
            if needs_exec {
                self.iq.push(seq);
            }
            width -= 1;
        }
    }

    // ------------------------------------------------------------------
    // fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self, bus: &mut dyn Bus) {
        if self.fetch_halted || self.cycle < self.fetch_stall_until {
            return;
        }
        let mut budget = self.cfg.fetch_width;
        while budget > 0 {
            if self.fq.len() + 4 > self.cfg.fetch_queue {
                return;
            }
            let pc = self.fetch_pc;
            // Gather up to max_inst_len bytes across at most two lines.
            let max_len = self.isa.max_inst_len();
            let mut window = [0u8; 16];
            let line = self.cfg.l1i.line as u64;
            let off = (pc % line) as usize;
            let avail0 = (line as usize - off).min(max_len);

            if !bus.is_cacheable(pc) {
                self.push_trap_uop(pc, Trap::FetchFault { pc });
                return;
            }
            match self.ensure_line(bus, pc, true) {
                Some(lat) if lat > self.cfg.l1i.latency => {
                    self.fetch_stall_until = self.cycle + lat as u64;
                    return;
                }
                Some(_) => {}
                None => {
                    self.push_trap_uop(pc, Trap::FetchFault { pc });
                    return;
                }
            }
            let mut win_tainted = false;
            {
                let way = self.l1i.lookup(pc & !(line - 1)).expect("resident");
                let bytes = self.l1i.line_bytes(pc & !(line - 1), way, off, avail0);
                window[..avail0].copy_from_slice(&bytes[off..off + avail0]);
                win_tainted |= self.l1i.taint_range_any(pc & !(line - 1), way, off, avail0);
            }
            let mut avail = avail0;
            let mut decoded = self.isa.decode(&window[..avail]);
            if matches!(decoded, Err(marvel_isa::trap::DecodeError::Truncated)) && avail < max_len {
                // Need bytes from the next line.
                let npc = (pc & !(line - 1)) + line;
                if !bus.is_cacheable(npc) {
                    self.push_trap_uop(pc, Trap::FetchFault { pc: npc });
                    return;
                }
                match self.ensure_line(bus, npc, true) {
                    Some(lat) if lat > self.cfg.l1i.latency => {
                        self.fetch_stall_until = self.cycle + lat as u64;
                        return;
                    }
                    Some(_) => {}
                    None => {
                        self.push_trap_uop(pc, Trap::FetchFault { pc: npc });
                        return;
                    }
                }
                let need = max_len - avail;
                {
                    let way = self.l1i.lookup(npc).expect("resident");
                    let bytes = self.l1i.line_bytes(npc, way, 0, need);
                    window[avail..avail + need].copy_from_slice(&bytes[..need]);
                    win_tainted |= self.l1i.taint_range_any(npc, way, 0, need);
                }
                avail += need;
                decoded = self.isa.decode(&window[..avail]);
            }

            let d = match decoded {
                Ok(d) => d,
                Err(_) => {
                    self.push_trap_uop(pc, Trap::IllegalInstruction { pc });
                    return;
                }
            };

            // Predict the next fetch address.
            let len = d.len as u64;
            let fallthrough = pc.wrapping_add(len);
            let last = d.uops.as_slice().last().copied().unwrap_or(MicroOp::bare(Op::Nop));
            let predicted_next = match last.op {
                Op::Jal => {
                    if d.call {
                        self.bp.ras_push(fallthrough);
                    }
                    pc.wrapping_add(last.imm as u64)
                }
                Op::Jalr => {
                    if d.ret {
                        self.bp.ras_pop().unwrap_or(fallthrough)
                    } else {
                        if d.call {
                            self.bp.ras_push(fallthrough);
                        }
                        fallthrough
                    }
                }
                Op::Branch(_) => {
                    if self.bp.predict(pc) {
                        pc.wrapping_add(last.imm as u64)
                    } else {
                        fallthrough
                    }
                }
                _ => fallthrough,
            };

            if win_tainted {
                self.taint_hop(T_L1I, T_DECODE);
            }
            let n = d.uops.len();
            for (k, &u) in d.uops.as_slice().iter().enumerate() {
                self.fq.push(FetchedUop {
                    uop: u,
                    pc,
                    macro_len: d.len,
                    first_of_macro: k == 0,
                    last_of_macro: k == n - 1,
                    predicted_next: if k == n - 1 { predicted_next } else { fallthrough },
                    trap: None,
                    tainted: win_tainted,
                    fetched_at: self.cycle,
                });
            }
            budget = budget.saturating_sub(n);
            self.fetch_pc = predicted_next;
            // Stop fetching past a Halt marker.
            if matches!(last.op, Op::Halt) {
                self.fetch_halted = true;
                return;
            }
        }
    }

    fn push_trap_uop(&mut self, pc: u64, trap: Trap) {
        self.fq.push(FetchedUop {
            uop: MicroOp::bare(Op::Nop),
            pc,
            macro_len: 0,
            first_of_macro: true,
            last_of_macro: true,
            predicted_next: pc,
            trap: Some(trap),
            tainted: false,
            fetched_at: self.cycle,
        });
        self.fetch_halted = true;
    }

    // ------------------------------------------------------------------
    // commit-effect log (lockstep oracle) & architectural state transfer
    // ------------------------------------------------------------------

    fn log_effect(&mut self, ent: &RobEntry, trap: Option<Trap>) {
        if let Some(log) = self.commit_log.as_mut() {
            log.push(CommitEffect {
                pc: ent.pc,
                uop: ent.uop,
                macro_len: ent.macro_len,
                last_of_macro: ent.last_of_macro,
                rd: if ent.pdst != PNONE { Some(ent.uop.rd) } else { None },
                value: ent.result,
                next_pc: ent.actual_next,
                mem_addr: ent.mem_addr,
                trap,
            });
        }
    }

    /// Start logging every committed micro-op's architectural effects
    /// (drained by the SoC into the lockstep oracle).
    pub fn enable_commit_effects(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// Take the effects committed since the previous drain.
    pub fn drain_commit_effects(&mut self) -> Vec<CommitEffect> {
        self.commit_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The architectural PC. Only meaningful when the pipeline is empty
    /// (right after [`reset_to`](Self::reset_to) or a committed marker).
    pub fn arch_pc(&self) -> u64 {
        self.fetch_pc
    }

    /// Snapshot the architectural register file through the retirement
    /// rename map (observational: no fault monitoring side effects).
    pub fn arch_regs(&self) -> Vec<u64> {
        let n = self.isa.reg_spec().total_regs;
        (0..n).map(|a| self.prf.peek(self.retire.get(a))).collect()
    }

    /// Adopt an externally computed architectural state: reset the
    /// pipeline to `pc` and install `regs` as the committed register
    /// values. Used by the reference-model fast-forward to skip the
    /// cycle-level warmup. The zero register (where the ISA has one)
    /// keeps its hardwired phys-0 mapping.
    pub fn transplant_arch_state(&mut self, pc: u64, regs: &[u64]) {
        self.reset_to(pc);
        let spec = self.isa.reg_spec();
        let mut in_use: Vec<u16> = vec![0];
        for (a, &v) in regs.iter().enumerate().take(spec.total_regs as usize) {
            if Some(a as u8) == spec.zero {
                continue;
            }
            // Deterministic dense mapping: arch reg a → phys a+1.
            let p = (a + 1) as u16;
            self.prf.write(p, v);
            self.rename.set(a as u8, p);
            self.retire.set(a as u8, p);
            in_use.push(p);
        }
        self.freelist = FreeList::new(self.cfg.int_prf as u16, &in_use);
        self.prf.set_all_ready();
    }

    /// Replay a recorded `(line_addr, icache)` access trace through the
    /// cache hierarchy — ordered oldest-last-touch first, so recently
    /// used lines win the replacement race — then zero the hit/miss
    /// counters so the warmup itself is not counted.
    pub fn warm_caches(&mut self, bus: &mut dyn Bus, lines: &[(u64, bool)]) {
        for &(addr, icache) in lines {
            let _ = self.ensure_line(bus, addr, icache);
        }
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2] {
            c.hits = 0;
            c.misses = 0;
        }
    }

    // ------------------------------------------------------------------
    // ROB fault injection
    // ------------------------------------------------------------------

    /// Injectable ROB bit space: 64 result bits per entry slot.
    pub fn rob_bit_len(&self) -> u64 {
        self.cfg.rob_entries as u64 * 64
    }

    /// Arm a flip of a result bit in ROB slot `bit/64`; it fires when the
    /// next result lands in that slot (or corrupts a live result at once).
    pub fn rob_flip_bit(&mut self, bit: u64) -> FaultFate {
        let slot = bit / 64;
        let b = bit % 64;
        // If the slot currently holds a done entry, corrupt it in place.
        let cap = self.cfg.rob_entries as u64;
        for e in &mut self.rob {
            if e.seq % cap == slot && e.state == EState::Done {
                e.result ^= 1 << b;
                e.result_taint |= 1 << b;
                self.rob_armed = Some((bit, FaultFate::Read));
                return FaultFate::Pending;
            }
        }
        self.rob_flip = Some((slot, b));
        self.rob_armed = Some((bit, FaultFate::Pending));
        FaultFate::Pending
    }

    /// Fate of the armed ROB fault.
    pub fn rob_fate(&self) -> Option<FaultFate> {
        self.rob_armed.map(|(_, f)| f)
    }

    // ------------------------------------------------------------------
    // lane-packed campaign passes
    // ------------------------------------------------------------------

    /// Attach the lane overlay engine: the next run is a lane pass.
    pub fn lane_begin(&mut self) {
        self.lanes = Some(Box::new(LaneEngine::new(self.prf.len(), self.prf_fp.len(), self.isa)));
    }

    /// Tear the overlay down and drop every cache-side lane monitor.
    pub fn lane_end(&mut self) {
        self.lanes = None;
        self.l1i.lane_clear();
        self.l1d.lane_clear();
        self.l2.lane_clear();
    }

    /// The live overlay, for the pass driver's retirement arithmetic.
    pub fn lane_engine(&self) -> Option<&LaneEngine> {
        self.lanes.as_deref()
    }

    /// Arm lane `lane` on a PRF bit (`fp` selects the FP file): the diff
    /// overlay and fate monitor are seeded; golden values stay untouched.
    /// Mirrors [`PhysRegFile::flip_bit`]'s initial `Pending` fate.
    pub fn lane_arm_prf(&mut self, lane: u8, fp: bool, bit: u64) -> FaultFate {
        let le = self.lanes.as_deref_mut().expect("lane_begin before lane_arm_prf");
        le.arm_prf(lane, fp, (bit / 64) as u16, (bit % 64) as u8);
        FaultFate::Pending
    }

    /// Arm lane `lane` on a ROB result bit, with the same in-place /
    /// deferred split as [`rob_flip_bit`](Self::rob_flip_bit): a `Done`
    /// entry in the slot is corrupted at once (fate `Read`), otherwise
    /// the flip fires at the next writeback into the slot.
    pub fn lane_arm_rob(&mut self, lane: u8, bit: u64) -> FaultFate {
        let slot = bit / 64;
        let b = (bit % 64) as u8;
        let cap = self.cfg.rob_entries as u64;
        let inplace =
            self.rob.iter().find(|e| e.seq % cap == slot && e.state == EState::Done).map(|e| e.seq);
        let le = self.lanes.as_deref_mut().expect("lane_begin before lane_arm_rob");
        match inplace {
            Some(seq) => le.arm_rob_inplace(lane, seq, b),
            None => le.arm_rob_deferred(lane, slot as u16, b),
        }
        FaultFate::Pending
    }

    /// Register a cache-armed lane with the overlay (the cache's own
    /// monitor was armed via [`Cache::lane_arm`], which returned `fate`).
    pub fn lane_note_cache_arm(&mut self, lane: u8, fate: FaultFate) {
        let le = self.lanes.as_deref_mut().expect("lane_begin before cache arming");
        le.arm_cache(lane);
        if fate != FaultFate::Pending {
            le.note_fates(1 << lane, fate);
        }
    }

    /// Access the speculative rename map (fault-injection target).
    pub fn rename_map_mut(&mut self) -> &mut RenameMap {
        &mut self.rename
    }

    pub fn rename_map(&self) -> &RenameMap {
        &self.rename
    }

    /// Export per-structure counters into a telemetry registry under
    /// `scope` (e.g. `cpu.l1d.miss`, `cpu.rob.occ_avg_x100`). Purely
    /// observational: reads stats, never touches simulation state.
    pub fn publish_metrics(&self, reg: &marvel_telemetry::Registry, scope: &marvel_telemetry::Scope) {
        if !reg.is_enabled() {
            return;
        }
        let s = &self.stats;
        reg.publish_scoped(scope, "cycles", s.cycles);
        reg.publish_scoped(scope, "committed_uops", s.committed_uops);
        reg.publish_scoped(scope, "committed_macros", s.committed_macros);
        reg.publish_scoped(scope, "loads", s.loads);
        reg.publish_scoped(scope, "stores", s.stores);
        reg.publish_scoped(scope, "branches", s.branches);
        reg.publish_scoped(scope, "mispredicts", s.mispredicts);
        reg.publish_scoped(scope, "flushes", s.flushes);
        reg.publish_scoped(scope, "replays", s.replays);
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            let sc = scope.child(name);
            reg.publish_scoped(&sc, "hit", c.hits);
            reg.publish_scoped(&sc, "miss", c.misses);
            reg.publish_scoped(&sc, "valid_lines", c.valid_lines());
        }
        // Time-averaged occupancies, scaled x100 to keep two decimals in
        // integer counters.
        let avg = |accum: u64| (accum * 100).checked_div(s.cycles).unwrap_or(0);
        reg.publish_scoped(&scope.child("rob"), "occ_avg_x100", avg(s.rob_occ_accum));
        reg.publish_scoped(&scope.child("iq"), "occ_avg_x100", avg(s.iq_occ_accum));
        reg.publish_scoped(&scope.child("lq"), "occ_avg_x100", avg(s.lq_occ_accum));
        reg.publish_scoped(&scope.child("sq"), "occ_avg_x100", avg(s.sq_occ_accum));
        let prf = scope.child("prf");
        reg.publish_scoped(&prf, "int_regs", self.prf.len() as u64);
        reg.publish_scoped(&prf, "fp_regs", self.prf_fp.len() as u64);
        reg.publish_scoped(&prf, "freelist_free", self.freelist.len() as u64);
        reg.publish_scoped(&prf, "freelist_free_avg_x100", avg(s.freelist_free_accum));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_isa::AluOp;

    #[test]
    fn op_tags_cover_classes() {
        assert_eq!(op_tag(Op::Alu(AluOp::Add)), 1);
        assert_eq!(op_tag(Op::Load { w: marvel_isa::MemWidth::D, signed: false }), 2);
        assert_eq!(op_tag(Op::Store { w: marvel_isa::MemWidth::B }), 3);
        assert_eq!(op_tag(Op::Jal), 4);
        assert_eq!(op_tag(Op::Halt), 5);
    }

    #[test]
    fn core_constructs_for_all_isas() {
        for isa in Isa::ALL {
            let c = Core::new(CoreConfig::table2(isa));
            assert_eq!(c.prf.len(), 128);
            assert_eq!(c.lq.entries.len(), 32);
            assert_eq!(c.rob_bit_len(), 128 * 64);
        }
    }
}
