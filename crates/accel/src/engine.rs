//! The accelerator compute unit: CDFG execution with functional-unit
//! constraints and per-memory port limits — the gem5-SALAM dynamic
//! execution engine analogue.
//!
//! Two engines share one fire body (`Accelerator::exec_node`):
//!
//! - **Cycle** ([`Accelerator::tick`]): the original oracle — every cycle
//!   retires completions and scans all nodes for issue.
//! - **Event** ([`Accelerator::advance`]): follows a precomputed
//!   [`StaticSchedule`], jumping straight between fire/terminator cycles,
//!   and optionally replays a recorded [`GoldenTrace`], re-evaluating
//!   only nodes whose inputs are tainted.

use crate::air::{Cdfg, FuClass, MemRef, NodeOp, Terminator, NODE_NONE};
use crate::mmr::{Mmr, CTRL_START, MMR_CTRL, MMR_DATA0, MMR_STATUS, STATUS_DONE, STATUS_ERROR};
use crate::schedule::{build_schedule, GoldenTrace, MemTiming, StaticSchedule};
use crate::sram::Sram;
use marvel_isa::{AluOp, Isa};
use marvel_telemetry::{alu_taint, TaintAluKind, TaintTracer};
use std::sync::Arc;

/// Map an ALU op onto its taint-transfer class (mirrors the CPU core).
fn taint_kind(op: AluOp) -> TaintAluKind {
    match op {
        AluOp::And | AluOp::Or | AluOp::Xor => TaintAluKind::Bitwise,
        AluOp::Add | AluOp::Sub => TaintAluKind::Arith,
        AluOp::Sll => TaintAluKind::ShiftLeft,
        AluOp::Srl | AluOp::Sra => TaintAluKind::ShiftRight,
        AluOp::Mul | AluOp::Div | AluOp::Rem | AluOp::Slt | AluOp::Sltu => TaintAluKind::Wide,
    }
}

/// marvel-taint state of an accelerator: the propagation tracer plus a
/// sticky control-poison flag (set once a tainted value decides a branch,
/// after which every store is suspect).
#[derive(Debug, Clone)]
pub struct AccelTaint {
    pub tracer: TaintTracer,
    ctl: bool,
}

/// Functional-unit configuration — the Fig. 17 design-space axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    pub int_alu: usize,
    pub fp_add: usize,
    pub fp_mul: usize,
}

impl FuConfig {
    pub fn uniform(n: usize) -> Self {
        FuConfig { int_alu: n, fp_add: n, fp_mul: n }
    }

    /// Analytic area estimate in arbitrary units (functional units only;
    /// memories are added by [`Accelerator::area`]).
    pub fn fu_area(&self) -> f64 {
        self.int_alu as f64 * 1.0 + self.fp_add as f64 * 2.5 + self.fp_mul as f64 * 4.0
    }
}

impl Default for FuConfig {
    fn default() -> Self {
        FuConfig::uniform(4)
    }
}

/// Datapath error conditions (classified as Crash by the injector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelError {
    /// A load/store fell outside its SPM/RegBank.
    OutOfBounds { mem_is_spm: bool, mem_idx: usize, addr: u64 },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::OutOfBounds { mem_is_spm, mem_idx, addr } => write!(
                f,
                "out-of-bounds access to {} {} at local address {addr:#x}",
                if *mem_is_spm { "SPM" } else { "RegBank" },
                mem_idx
            ),
        }
    }
}

impl std::error::Error for AccelError {}

/// Externally visible execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelState {
    Idle,
    Running,
    Done,
    Error(AccelError),
}

/// Per-run statistics.
#[derive(Debug, Clone, Default)]
pub struct AccelStats {
    pub compute_cycles: u64,
    pub nodes_executed: u64,
    pub mem_reads: u64,
    pub mem_writes: u64,
    pub blocks_executed: u64,
    /// Fires that went through full datapath evaluation (Const/Arg/Store
    /// excluded). Under golden replay this is taint-proportional, not
    /// O(nodes × cycles) — the perf guard pins that.
    pub node_evals: u64,
    /// Fires satisfied from the golden trace without re-evaluation.
    pub memo_hits: u64,
    /// Block instances collapsed whole by the warp fast path.
    pub warp_blocks: u64,
}

/// Which stepping strategy [`Accelerator::advance`] uses. The cycle
/// engine is the oracle; the event engine requires an installed
/// [`StaticSchedule`] and produces bit-identical results (the
/// differential tests pin this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccelEngine {
    #[default]
    Cycle,
    Event,
}

/// Golden-replay cursor state. `aligned` is sticky-false: once the run's
/// control path (block entries at exact cycles) diverges from the
/// recorded trace, every remaining node is fully evaluated.
#[derive(Debug, Clone)]
struct ReplayCtl {
    trace: Arc<GoldenTrace>,
    fire_pos: usize,
    block_pos: usize,
    /// Cursor into `trace.load_addrs`, advanced at every aligned load fire.
    load_pos: usize,
    /// Cursor into `trace.store_ops`, advanced at every aligned store fire.
    store_pos: usize,
    aligned: bool,
}

#[derive(Debug, Clone)]
struct BlockExec {
    block: usize,
    args: Vec<u64>,
    vals: Vec<u64>,
    done: Vec<bool>,
    started: Vec<bool>,
    /// (completion cycle, node index)
    pending: Vec<(u64, u32)>,
    remaining: usize,
    /// Absolute cycle this block was entered (schedule cycles are
    /// relative to it).
    entry_cycle: u64,
    /// Next index into the block's static fire list (event engine only;
    /// stays 0 under the cycle engine).
    sched_pos: u32,
    /// marvel-taint shadows of `args`/`vals` (empty when tracking is off).
    args_taint: Vec<u64>,
    vals_taint: Vec<u64>,
}

impl BlockExec {
    /// Functional equality: the taint shadows are excluded (a faulty run
    /// with taint enabled allocates them; the pristine snapshot does not),
    /// their effect is checked separately via taint quiescence. The
    /// event-engine cursor state (`entry_cycle`, `sched_pos`) is included:
    /// the convergence exit must never equate two executions that would
    /// fire or retire events differently from here on.
    fn func_eq(&self, other: &BlockExec) -> bool {
        self.block == other.block
            && self.args == other.args
            && self.vals == other.vals
            && self.done == other.done
            && self.started == other.started
            && self.pending == other.pending
            && self.remaining == other.remaining
            && self.entry_cycle == other.entry_cycle
            && self.sched_pos == other.sched_pos
    }

    fn taint_quiescent(&self) -> bool {
        self.args_taint.iter().all(|&t| t == 0) && self.vals_taint.iter().all(|&t| t == 0)
    }
}

/// A SALAM-style accelerator instance.
#[derive(Debug, Clone)]
pub struct Accelerator {
    pub name: String,
    pub cdfg: Cdfg,
    pub fu: FuConfig,
    pub spms: Vec<Sram>,
    pub regbanks: Vec<Sram>,
    pub mmr: Mmr,
    state: AccelState,
    exec: Option<BlockExec>,
    cycle: u64,
    /// Interrupt line (level); raised on completion, cleared by MMR access.
    pub irq: bool,
    pub stats: AccelStats,
    /// marvel-taint plane (`None` = off).
    taint: Option<Box<AccelTaint>>,
    /// Stepping strategy used by [`Accelerator::advance`].
    engine: AccelEngine,
    /// Static fire schedule, shared by all clones of one golden prep.
    schedule: Option<Arc<StaticSchedule>>,
    /// Golden-trace replay cursor (armed by the golden prep; cursors ride
    /// along `clone`/`reset_from` so ladder rungs resume mid-trace).
    replay: Option<ReplayCtl>,
    /// In-progress golden trace recording (golden prep only).
    recording: Option<Box<GoldenTrace>>,
}

impl Accelerator {
    pub fn new(
        name: &str,
        cdfg: Cdfg,
        fu: FuConfig,
        spms: Vec<Sram>,
        regbanks: Vec<Sram>,
        n_args: usize,
    ) -> Self {
        cdfg.validate().expect("invalid CDFG");
        assert_eq!(cdfg.blocks[0].n_args, n_args, "entry block arg count mismatch");
        Accelerator {
            name: name.to_string(),
            cdfg,
            fu,
            spms,
            regbanks,
            mmr: Mmr::new(n_args),
            state: AccelState::Idle,
            exec: None,
            cycle: 0,
            irq: false,
            stats: AccelStats::default(),
            taint: None,
            engine: AccelEngine::Cycle,
            schedule: None,
            replay: None,
            recording: None,
        }
    }

    // ---- event engine control ----

    /// Build and attach the static schedule for this design (idempotent).
    /// Returns whether the design is schedulable; callers stay on the
    /// cycle engine when it is not.
    pub fn prepare_event_engine(&mut self) -> bool {
        if self.schedule.is_some() {
            return true;
        }
        let t = |s: &Sram| MemTiming { ports: s.ports, read_latency: s.kind.read_latency() };
        let spms: Vec<MemTiming> = self.spms.iter().map(t).collect();
        let regbanks: Vec<MemTiming> = self.regbanks.iter().map(t).collect();
        match build_schedule(&self.cdfg, &self.fu, &spms, &regbanks) {
            Some(s) => {
                self.schedule = Some(Arc::new(s));
                true
            }
            None => false,
        }
    }

    /// Switch to the event engine. Returns `false` (and stays on the
    /// cycle engine) when no schedule is installed.
    pub fn set_engine_event(&mut self) -> bool {
        if self.schedule.is_some() {
            self.engine = AccelEngine::Event;
            true
        } else {
            false
        }
    }

    pub fn set_engine_cycle(&mut self) {
        self.engine = AccelEngine::Cycle;
    }

    pub fn event_engine(&self) -> bool {
        self.engine == AccelEngine::Event
    }

    /// Arm golden-trace replay from the beginning of a run.
    pub fn arm_replay(&mut self, trace: Arc<GoldenTrace>) {
        self.replay = Some(ReplayCtl {
            trace,
            fire_pos: 0,
            block_pos: 0,
            load_pos: 0,
            store_pos: 0,
            aligned: true,
        });
    }

    /// A replayable trace and schedule are both present.
    pub fn replay_armed(&self) -> bool {
        self.replay.is_some() && self.schedule.is_some()
    }

    /// The replay cursor still tracks the golden control path (`true`
    /// when replay is unarmed — there is nothing to diverge from).
    pub fn replay_aligned(&self) -> bool {
        self.replay.as_ref().is_none_or(|r| r.aligned)
    }

    /// Start recording a golden firing trace (golden prep only).
    pub fn begin_trace_recording(&mut self) {
        self.recording = Some(Box::default());
    }

    /// Finish recording and take the trace.
    pub fn take_trace(&mut self) -> Option<GoldenTrace> {
        self.recording.take().map(|b| *b)
    }

    // ---- marvel-taint control ----

    /// Enable taint tracking before fault arming: allocates the SRAM and
    /// MMR shadows plus the propagation tracer (`seed` labels the
    /// injection site).
    pub fn enable_taint(&mut self, seed: &str) {
        for s in self.spms.iter_mut().chain(self.regbanks.iter_mut()) {
            s.enable_taint();
        }
        self.mmr.enable_taint();
        // Enabling mid-run (a checkpoint-ladder rung restore) finds a block
        // already in flight whose shadows were never allocated: give it
        // zeroed planes — the fault-free prefix carries no taint.
        if let Some(ex) = self.exec.as_mut() {
            if ex.args_taint.len() < ex.args.len() {
                ex.args_taint = vec![0; ex.args.len()];
            }
            if ex.vals_taint.len() < ex.vals.len() {
                ex.vals_taint = vec![0; ex.vals.len()];
            }
        }
        self.taint = Some(Box::new(AccelTaint { tracer: TaintTracer::new(seed), ctl: false }));
    }

    pub fn taint_enabled(&self) -> bool {
        self.taint.is_some()
    }

    pub fn taint_tracer(&self) -> Option<&TaintTracer> {
        self.taint.as_deref().map(|t| &t.tracer)
    }

    /// Record a propagation hop on behalf of external movers (DMA).
    pub fn taint_hop(&mut self, from: &'static str, to: &'static str) {
        let cyc = self.cycle;
        if let Some(t) = self.taint.as_deref_mut() {
            t.tracer.hop(cyc, from, to);
        }
    }

    /// Record that tainted state became architecturally visible (DMA out).
    pub fn taint_arch(&mut self, structure: &'static str) {
        let cyc = self.cycle;
        if let Some(t) = self.taint.as_deref_mut() {
            t.tracer.arch_reach(cyc, structure);
        }
    }

    pub fn state(&self) -> AccelState {
        self.state
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Look up a memory by reference.
    pub fn mem(&mut self, m: MemRef) -> &mut Sram {
        match m {
            MemRef::Spm(i) => &mut self.spms[i],
            MemRef::RegBank(i) => &mut self.regbanks[i],
        }
    }

    pub fn mem_ref(&self, m: MemRef) -> &Sram {
        match m {
            MemRef::Spm(i) => &self.spms[i],
            MemRef::RegBank(i) => &self.regbanks[i],
        }
    }

    /// Total area in arbitrary units: FUs + on-chip SRAM.
    pub fn area(&self) -> f64 {
        let sram: usize = self.spms.iter().chain(&self.regbanks).map(|s| s.size()).sum();
        self.fu.fu_area() + sram as f64 * 0.004
    }

    /// Export execution and on-chip-memory counters into a telemetry
    /// registry under `scope` (e.g. `accel.gemm.spm0.reads`).
    pub fn publish_metrics(&self, reg: &marvel_telemetry::Registry, scope: &marvel_telemetry::Scope) {
        if !reg.is_enabled() {
            return;
        }
        reg.publish_scoped(scope, "cycles", self.cycle);
        reg.publish_scoped(scope, "compute_cycles", self.stats.compute_cycles);
        reg.publish_scoped(scope, "nodes_executed", self.stats.nodes_executed);
        reg.publish_scoped(scope, "blocks_executed", self.stats.blocks_executed);
        reg.publish_scoped(scope, "mem_reads", self.stats.mem_reads);
        reg.publish_scoped(scope, "mem_writes", self.stats.mem_writes);
        reg.publish_scoped(scope, "node_evals", self.stats.node_evals);
        reg.publish_scoped(scope, "memo_hits", self.stats.memo_hits);
        for (i, s) in self.spms.iter().enumerate() {
            let sc = scope.indexed("spm", i);
            reg.publish_scoped(&sc, "reads", s.reads);
            reg.publish_scoped(&sc, "writes", s.writes);
        }
        for (i, s) in self.regbanks.iter().enumerate() {
            let sc = scope.indexed("regbank", i);
            reg.publish_scoped(&sc, "reads", s.reads);
            reg.publish_scoped(&sc, "writes", s.writes);
        }
    }

    /// Restore this accelerator to the pristine checkpoint it was cloned
    /// from, for the zero-copy campaign reset. SRAM data uses the dirty
    /// watermarks; the (immutable-during-runs) CDFG is not copied. Returns
    /// state bytes copied.
    pub fn reset_from(&mut self, pristine: &Accelerator) -> u64 {
        let mut bytes = 0u64;
        for (s, p) in self.spms.iter_mut().zip(&pristine.spms) {
            bytes += s.reset_from(p);
        }
        for (s, p) in self.regbanks.iter_mut().zip(&pristine.regbanks) {
            bytes += s.reset_from(p);
        }
        bytes += self.mmr.reset_from(&pristine.mmr);
        self.fu = pristine.fu;
        self.state = pristine.state;
        self.exec.clone_from(&pristine.exec);
        self.cycle = pristine.cycle;
        self.irq = pristine.irq;
        self.stats = pristine.stats.clone();
        // Per-run taint plane: the pristine checkpoint never carries one.
        self.taint.clone_from(&pristine.taint);
        self.engine = pristine.engine;
        // The schedule is immutable and Arc-shared (pointer copy); the
        // replay cursor is positional state and must be restored.
        self.schedule.clone_from(&pristine.schedule);
        self.replay.clone_from(&pristine.replay);
        bytes + std::mem::size_of::<AccelStats>() as u64 + 32
    }

    /// Functional-state equality against a pristine snapshot at the same
    /// cycle, for the convergence exit: execution state, memories and MMRs
    /// must match; statistics, armed fates, stuck lists and taint shadows
    /// are observational and excluded.
    pub fn state_eq(&self, pristine: &Accelerator) -> bool {
        self.state == pristine.state
            && self.cycle == pristine.cycle
            && self.irq == pristine.irq
            && self.mmr.state_eq(&pristine.mmr)
            && match (&self.exec, &pristine.exec) {
                (None, None) => true,
                (Some(a), Some(b)) => a.func_eq(b),
                _ => false,
            }
            && self.spms.iter().zip(&pristine.spms).all(|(s, p)| s.state_eq(p))
            && self.regbanks.iter().zip(&pristine.regbanks).all(|(s, p)| s.state_eq(p))
            // Replay alignment is future-determining state: a run whose
            // control path has forked off the golden trace evaluates
            // differently from here on and must not be declared converged
            // against a still-aligned snapshot.
            && self.replay_aligned() == pristine.replay_aligned()
    }

    /// True when no live state carries taint (or tracking is off) — a
    /// precondition for the convergence exit when attribution is collected.
    pub fn taint_quiescent(&self) -> bool {
        self.spms.iter().chain(&self.regbanks).all(|s| s.taint_quiescent())
            && self.mmr.taint_quiescent()
            && self.exec.as_ref().is_none_or(|e| e.taint_quiescent())
            && self.taint.as_deref().is_none_or(|t| !t.ctl)
    }

    /// Start computation directly (standalone mode), passing entry-block
    /// arguments. Equivalent to writing the data MMRs then CTRL.start.
    pub fn start(&mut self, args: &[u64]) {
        for (i, &a) in args.iter().enumerate() {
            self.mmr.poke(MMR_DATA0 + i, a);
        }
        self.mmr.poke(MMR_CTRL, CTRL_START);
    }

    /// Reset to idle (keeps memory contents).
    pub fn reset(&mut self) {
        self.state = AccelState::Idle;
        self.exec = None;
        self.mmr.poke(MMR_CTRL, 0);
        self.mmr.poke(MMR_STATUS, 0);
        self.irq = false;
        self.stats = AccelStats::default();
    }

    fn enter_block(&mut self, block: usize, args: Vec<u64>, args_taint: Vec<u64>) {
        self.stats.blocks_executed += 1;
        let now = self.cycle;
        if let Some(rec) = self.recording.as_mut() {
            rec.entries.push((block as u32, now));
            rec.entry_args.push(args.clone());
        }
        // Replay alignment: the golden trace is only valid while the run
        // enters the same blocks at the same cycles. The cursor advances
        // only under the event engine, so cycle-engine runs never consume
        // (or invalidate) an armed trace.
        if self.engine == AccelEngine::Event {
            if let Some(r) = self.replay.as_mut() {
                if r.aligned {
                    match r.trace.entries.get(r.block_pos) {
                        Some(&(tb, tc)) if tb as usize == block && tc == now => r.block_pos += 1,
                        _ => r.aligned = false,
                    }
                }
            }
        }
        self.materialize_block(block, args, args_taint);
    }

    /// Construct the per-instance execution state of `block` at the
    /// current cycle. Split out of [`enter_block`] so the warp path can
    /// materialize a block whose entry bookkeeping (instance counter,
    /// replay-cursor consume) it has already performed itself.
    fn materialize_block(&mut self, block: usize, args: Vec<u64>, args_taint: Vec<u64>) {
        let n = self.cdfg.blocks[block].nodes.len();
        let track = self.taint.is_some();
        let now = self.cycle;
        self.exec = Some(BlockExec {
            block,
            args,
            vals: vec![0; n],
            done: vec![false; n],
            started: vec![false; n],
            pending: Vec::new(),
            remaining: n,
            entry_cycle: now,
            sched_pos: 0,
            args_taint,
            vals_taint: if track { vec![0; n] } else { Vec::new() },
        });
    }

    /// Advance one cycle.
    pub fn tick(&mut self) -> AccelState {
        self.cycle += 1;
        match self.state {
            AccelState::Idle => {
                // MMR-triggered start: entry args come from the data MMRs
                // (reads are monitored — an injected MMR fault activates
                // here).
                if self.mmr.peek(MMR_CTRL) & CTRL_START != 0 {
                    let n_args = self.cdfg.blocks[0].n_args;
                    let args: Vec<u64> =
                        (0..n_args).map(|i| self.mmr.read(MMR_DATA0 + i).unwrap_or(0)).collect();
                    let args_taint: Vec<u64> = if self.taint.is_some() {
                        let t: Vec<u64> =
                            (0..n_args).map(|i| self.mmr.taint_of(MMR_DATA0 + i)).collect();
                        if t.iter().any(|&x| x != 0) {
                            self.taint_hop("MMR", "FU");
                        }
                        t
                    } else {
                        Vec::new()
                    };
                    self.mmr.poke(MMR_CTRL, 0);
                    self.mmr.poke(MMR_STATUS, 0);
                    self.state = AccelState::Running;
                    self.enter_block(0, args, args_taint);
                }
            }
            AccelState::Running => {
                self.stats.compute_cycles += 1;
                self.step_block();
            }
            AccelState::Done | AccelState::Error(_) => {}
        }
        self.state
    }

    fn finish_with(&mut self, st: AccelState) {
        self.state = st;
        self.exec = None;
        let status = match st {
            AccelState::Done => STATUS_DONE,
            AccelState::Error(_) => STATUS_DONE | STATUS_ERROR,
            _ => 0,
        };
        self.mmr.poke(MMR_STATUS, status);
        self.irq = true;
    }

    fn step_block(&mut self) {
        let now = self.cycle;
        let mut ex = self.exec.take().expect("running without exec state");

        // 1. retire completions.
        let mut i = 0;
        while i < ex.pending.len() {
            if ex.pending[i].0 <= now {
                let (_, ni) = ex.pending.swap_remove(i);
                ex.done[ni as usize] = true;
                ex.remaining -= 1;
            } else {
                i += 1;
            }
        }

        // 2. block complete → terminator.
        if ex.remaining == 0 {
            self.run_terminator(ex);
            return;
        }

        // 3. issue ready nodes under FU constraints.
        let mut int_left = self.fu.int_alu;
        let mut fpa_left = self.fu.fp_add;
        let mut fpm_left = self.fu.fp_mul;
        let mut mem_used: Vec<(MemRef, usize)> = Vec::new();

        let block = ex.block;
        let n_nodes = self.cdfg.blocks[block].nodes.len();
        for ni in 0..n_nodes {
            if ex.started[ni] {
                continue;
            }
            let node = self.cdfg.blocks[block].nodes[ni];
            // Operand readiness.
            let ready = [node.a, node.b, node.c].iter().all(|&o| o == NODE_NONE || ex.done[o as usize]);
            if !ready {
                continue;
            }
            // Per-memory ordering: loads wait for earlier unfinished
            // stores (RAW) and stores wait for earlier unfinished loads
            // (WAR); same-kind accesses proceed in parallel. Designs must
            // not issue two same-block stores to one address (WAW), which
            // none of the MachSuite kernels do.
            if let Some(m) = node.op.is_mem() {
                let blocked = self.cdfg.blocks[block].nodes[..ni].iter().enumerate().any(|(pi, p)| {
                    p.op.is_mem() == Some(m) && !ex.done[pi] && (p.op.is_store() != node.op.is_store())
                });
                if blocked {
                    continue;
                }
            }
            // FU availability.
            match node.op.fu_class() {
                FuClass::Free => {}
                FuClass::IntAlu => {
                    if int_left == 0 {
                        continue;
                    }
                    int_left -= 1;
                }
                FuClass::FpAdd => {
                    if fpa_left == 0 {
                        continue;
                    }
                    fpa_left -= 1;
                }
                FuClass::FpMul => {
                    if fpm_left == 0 {
                        continue;
                    }
                    fpm_left -= 1;
                }
                FuClass::MemPort(m) => {
                    let ports = self.mem_ref(m).ports;
                    let used = mem_used.iter_mut().find(|(mm, _)| *mm == m);
                    match used {
                        Some((_, u)) => {
                            if *u >= ports {
                                continue;
                            }
                            *u += 1;
                        }
                        None => mem_used.push((m, 1)),
                    }
                }
            }

            // Execute.
            if !self.exec_node(&mut ex, ni, now) {
                return;
            }
        }

        self.exec = Some(ex);
    }

    /// Block terminator: finish, or pass block arguments (with taint and
    /// control-poison bookkeeping) to the successor. Shared verbatim by
    /// both engines — branch direction is the one control decision replay
    /// cannot precompute.
    fn run_terminator(&mut self, ex: BlockExec) {
        let track = self.taint.is_some();
        let term = self.cdfg.blocks[ex.block].term.clone();
        let taint_of = |ex: &BlockExec, a: u32, ctl: bool| -> u64 {
            ex.vals_taint.get(a as usize).copied().unwrap_or(0) | if ctl { !0 } else { 0 }
        };
        match term {
            Terminator::Finish => {
                self.finish_with(AccelState::Done);
            }
            Terminator::Jump { target, args } => {
                let vals: Vec<u64> = args.iter().map(|&a| ex.vals[a as usize]).collect();
                let ctl = self.taint.as_deref().is_some_and(|t| t.ctl);
                let vt: Vec<u64> = if track {
                    args.iter().map(|&a| taint_of(&ex, a, ctl)).collect()
                } else {
                    Vec::new()
                };
                self.enter_block(target, vals, vt);
            }
            Terminator::Branch { cond, then_, else_ } => {
                // A tainted condition poisons control flow for good:
                // the very choice of path is now fault-dependent.
                if ex.vals_taint.get(cond as usize).copied().unwrap_or(0) != 0 {
                    if let Some(t) = self.taint.as_deref_mut() {
                        t.ctl = true;
                    }
                }
                let (t, args) = if ex.vals[cond as usize] != 0 { then_ } else { else_ };
                let vals: Vec<u64> = args.iter().map(|&a| ex.vals[a as usize]).collect();
                let ctl = self.taint.as_deref().is_some_and(|t| t.ctl);
                let vt: Vec<u64> = if track {
                    args.iter().map(|&a| taint_of(&ex, a, ctl)).collect()
                } else {
                    Vec::new()
                };
                self.enter_block(t, vals, vt);
            }
        }
    }

    /// Fire node `ni` of the running block at cycle `now`: the shared
    /// issue body of the cycle engine's scan loop and the event engine's
    /// precomputed fire list (readiness and FU arbitration are the
    /// caller's responsibility). Returns `false` when the node raised a
    /// datapath error: the accelerator has finished and `ex` must be
    /// dropped, not stored back.
    fn exec_node(&mut self, ex: &mut BlockExec, ni: usize, now: u64) -> bool {
        let node = self.cdfg.blocks[ex.block].nodes[ni];
        ex.started[ni] = true;
        self.stats.nodes_executed += 1;
        // Golden-trace cursor: one slot per fire in global order,
        // consumed only while the replay is aligned with the recorded
        // control path.
        let trace_val = match self.replay.as_mut() {
            Some(r) if self.engine == AccelEngine::Event && r.aligned => {
                match r.trace.fire_vals.get(r.fire_pos) {
                    Some(&v) => {
                        r.fire_pos += 1;
                        // Keep the warp path's load/store cursors in
                        // lock-step with the fire cursor.
                        match node.op {
                            NodeOp::Load { .. } => r.load_pos += 1,
                            NodeOp::Store { .. } => r.store_pos += 1,
                            _ => {}
                        }
                        Some(v)
                    }
                    None => {
                        r.aligned = false;
                        None
                    }
                }
            }
            _ => None,
        };
        let a = if node.a == NODE_NONE { 0 } else { ex.vals[node.a as usize] };
        let b = if node.b == NODE_NONE { 0 } else { ex.vals[node.b as usize] };
        let c = if node.c == NODE_NONE { 0 } else { ex.vals[node.c as usize] };
        let track = self.taint.is_some();
        let tof = |t: &[u64], n: u32| if n == NODE_NONE { 0 } else { t[n as usize] };
        let (ta, tb, tc) = if track {
            (tof(&ex.vals_taint, node.a), tof(&ex.vals_taint, node.b), tof(&ex.vals_taint, node.c))
        } else {
            (0, 0, 0)
        };
        let mut lat = node.op.latency();

        // Memoized replay: while the control path matches the golden
        // trace, a node whose inputs carry no taint is bit-identical to
        // the golden run — take its recorded value instead of
        // re-evaluating. Loads must additionally prove the read range
        // untainted and still touch the memory (access tally + armed-bit
        // fate are observable); stores always execute (memory contents
        // must evolve, and a clean store is what washes taint away).
        if track && trace_val.is_some() {
            let memo = match node.op {
                NodeOp::Alu(_)
                | NodeOp::FAdd
                | NodeOp::FSub
                | NodeOp::FMul
                | NodeOp::FDiv
                | NodeOp::FCmpLt
                | NodeOp::ItoF
                | NodeOp::FtoI
                | NodeOp::Select => (ta | tb | tc) == 0,
                NodeOp::Load { mem, w } => {
                    ta == 0
                        && !self.mem_ref(mem).taint_any(a as usize, w as usize)
                        && self.mem(mem).touch_read(a, w as usize)
                }
                _ => false,
            };
            if memo {
                self.stats.memo_hits += 1;
                if let NodeOp::Load { mem, .. } = node.op {
                    self.stats.mem_reads += 1;
                    lat += self.mem_ref(mem).kind.read_latency();
                }
                ex.vals[ni] = trace_val.unwrap_or(0);
                ex.vals_taint[ni] = 0;
                if lat == 0 {
                    ex.done[ni] = true;
                    ex.remaining -= 1;
                } else {
                    ex.pending.push((now + lat as u64, ni as u32));
                }
                return true;
            }
        }

        match node.op {
            NodeOp::Const(_) | NodeOp::Arg(_) | NodeOp::Store { .. } => {}
            _ => self.stats.node_evals += 1,
        }
        let val = match node.op {
            NodeOp::Const(v) => v,
            NodeOp::Arg(k) => ex.args[k],
            NodeOp::Alu(op) => op.eval(a, b, Isa::RiscV).expect("riscv alu never traps"),
            NodeOp::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
            NodeOp::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
            NodeOp::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
            NodeOp::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
            NodeOp::FCmpLt => (f64::from_bits(a) < f64::from_bits(b)) as u64,
            NodeOp::ItoF => ((a as i64) as f64).to_bits(),
            NodeOp::FtoI => (f64::from_bits(a) as i64) as u64,
            NodeOp::Select => {
                if c != 0 {
                    a
                } else {
                    b
                }
            }
            NodeOp::Load { mem, w } => {
                self.stats.mem_reads += 1;
                lat += self.mem_ref(mem).kind.read_latency();
                match self.mem(mem).read(a, w as usize) {
                    Some(v) => {
                        if track {
                            let mname = self.mem_ref(mem).kind.name();
                            let t = self.mem_ref(mem).taint_read(a, w as usize)
                                | if ta != 0 { !0 } else { 0 };
                            if t != 0 {
                                self.taint_hop(mname, "FU");
                            }
                            ex.vals_taint[ni] = t;
                        }
                        v
                    }
                    None => {
                        let (is_spm, idx) = match mem {
                            MemRef::Spm(i) => (true, i),
                            MemRef::RegBank(i) => (false, i),
                        };
                        self.finish_with(AccelState::Error(AccelError::OutOfBounds {
                            mem_is_spm: is_spm,
                            mem_idx: idx,
                            addr: a,
                        }));
                        return false;
                    }
                }
            }
            NodeOp::Store { mem, w } => {
                self.stats.mem_writes += 1;
                match self.mem(mem).write(a, w as usize, b) {
                    Some(()) => {
                        if track {
                            let ctl = self.taint.as_deref().is_some_and(|t| t.ctl);
                            let t = tb | if ta != 0 || ctl { !0 } else { 0 };
                            let mname = self.mem_ref(mem).kind.name();
                            self.mem(mem).taint_write(a, w as usize, t);
                            if t != 0 {
                                self.taint_hop("FU", mname);
                            }
                        }
                        0
                    }
                    None => {
                        let (is_spm, idx) = match mem {
                            MemRef::Spm(i) => (true, i),
                            MemRef::RegBank(i) => (false, i),
                        };
                        self.finish_with(AccelState::Error(AccelError::OutOfBounds {
                            mem_is_spm: is_spm,
                            mem_idx: idx,
                            addr: a,
                        }));
                        return false;
                    }
                }
            }
        };
        if track {
            ex.vals_taint[ni] = match node.op {
                NodeOp::Const(_) => 0,
                NodeOp::Arg(k) => ex.args_taint.get(k).copied().unwrap_or(0),
                NodeOp::Alu(op) => alu_taint(taint_kind(op), ta, tb, b),
                // FP and conversions mix bits non-locally: any tainted
                // input poisons the whole result.
                NodeOp::FAdd
                | NodeOp::FSub
                | NodeOp::FMul
                | NodeOp::FDiv
                | NodeOp::FCmpLt
                | NodeOp::ItoF
                | NodeOp::FtoI => {
                    if (ta | tb) != 0 {
                        !0
                    } else {
                        0
                    }
                }
                // A tainted select condition could pick either input.
                NodeOp::Select => {
                    if tc != 0 {
                        !0
                    } else if c != 0 {
                        ta
                    } else {
                        tb
                    }
                }
                NodeOp::Load { .. } => ex.vals_taint[ni], // set above
                NodeOp::Store { .. } => 0,
            };
        }
        if let Some(rec) = self.recording.as_mut() {
            rec.fire_vals.push(val);
            match node.op {
                NodeOp::Load { .. } => rec.load_addrs.push(a),
                NodeOp::Store { .. } => rec.store_ops.push((a, b)),
                _ => {}
            }
        }
        ex.vals[ni] = val;
        if lat == 0 {
            ex.done[ni] = true;
            ex.remaining -= 1;
        } else {
            ex.pending.push((now + lat as u64, ni as u32));
        }
        true
    }

    // ---- event engine ----

    /// Advance up to `max_cycles`, returning the resulting state and the
    /// cycles actually consumed (always `max_cycles` unless the run left
    /// `Idle`/`Running` earlier). Under the cycle engine this is a plain
    /// tick loop; under the event engine it jumps straight between
    /// schedule events, bulk-charging the skipped compute cycles.
    pub fn advance(&mut self, max_cycles: u64) -> (AccelState, u64) {
        if self.engine == AccelEngine::Cycle || self.schedule.is_none() {
            let mut used = 0;
            while used < max_cycles {
                used += 1;
                match self.tick() {
                    AccelState::Idle | AccelState::Running => {}
                    _ => break,
                }
            }
            return (self.state, used);
        }
        let mut left = max_cycles;
        loop {
            match self.state {
                AccelState::Idle => {
                    if left == 0 {
                        break;
                    }
                    if self.mmr.peek(MMR_CTRL) & CTRL_START != 0 {
                        // The start handshake is a single tick.
                        self.tick();
                        left -= 1;
                    } else {
                        // Nothing can happen until software pokes CTRL.
                        self.cycle += left;
                        left = 0;
                    }
                }
                AccelState::Running => {
                    if left == 0 {
                        break;
                    }
                    let warped = self.try_warp(left);
                    if warped > 0 {
                        left -= warped;
                        continue;
                    }
                    let coned = self.try_cone(left);
                    if coned > 0 {
                        left -= coned;
                        continue;
                    }
                    let next = self.next_event_cycle();
                    let delta = next - self.cycle;
                    if delta > left {
                        self.cycle += left;
                        self.stats.compute_cycles += left;
                        left = 0;
                    } else {
                        self.cycle += delta;
                        self.stats.compute_cycles += delta;
                        left -= delta;
                        self.step_event();
                    }
                }
                AccelState::Done | AccelState::Error(_) => break,
            }
        }
        (self.state, max_cycles - left)
    }

    /// Whole-block warp: replay an entire block instance in one step when
    /// it provably touches no tainted data, applying only the recorded
    /// stores and skipping per-fire execution. Returns the cycles
    /// consumed (0 = not eligible, fall back to per-fire stepping).
    ///
    /// Eligibility is checked against the state *at block entry*: the
    /// replay must be aligned, control flow unpoisoned, the block
    /// instance fresh (nothing issued or in flight), every entry argument
    /// untainted, and the whole block must fit inside the caller's cycle
    /// budget (so DMA stop patterns and early-termination polls observe
    /// identical boundaries). Phase A then walks the schedule's load
    /// manifest read-only: every load must see fully untainted bytes at
    /// its golden address. Checking in fire order is sound — the i-th
    /// load's runtime address equals its golden address as long as every
    /// earlier fire was clean, and clean stores only ever *remove* taint.
    /// Any tainted load aborts before any state is touched. Faults that
    /// act at access time stay correct for free: a pending fate byte and
    /// permanently stuck bits keep their shadow bytes tainted, so any
    /// load that could observe them aborts the warp, and stores go
    /// through the ordinary [`Sram::write`] (fate transition, dirty
    /// watermark, stuck reassert) exactly as per-fire execution would.
    fn try_warp(&mut self, left: u64) -> u64 {
        if self.recording.is_some() {
            return 0;
        }
        let Some(t) = self.taint.as_deref() else { return 0 };
        if t.ctl {
            return 0;
        }
        if !matches!(self.replay.as_ref(), Some(r) if r.aligned) || self.schedule.is_none() {
            return 0;
        }
        let (mut block, mut entry_cycle) = {
            let Some(ex) = self.exec.as_ref() else { return 0 };
            let n = self.cdfg.blocks[ex.block].nodes.len();
            if ex.sched_pos != 0
                || !ex.pending.is_empty()
                || ex.remaining != n
                || ex.args_taint.iter().any(|&x| x != 0)
            {
                return 0;
            }
            (ex.block, ex.entry_cycle)
        };
        let sched = Arc::clone(self.schedule.as_ref().unwrap());
        let trace = Arc::clone(&self.replay.as_ref().unwrap().trace);
        let mut consumed = 0u64;
        // `chained_at`: index into `trace.entries` of the current block's
        // entry when the chain has logically entered it (counter bumped,
        // cursor consumed) but no `BlockExec` exists yet. `None` on the
        // first iteration, where `self.exec` still holds the live state.
        let mut chained_at: Option<usize> = None;
        loop {
            let bs = &sched.blocks[block];
            let delta = (entry_cycle + bs.term_rel as u64).saturating_sub(self.cycle);
            let r = self.replay.as_ref().unwrap();
            let (load_pos, store_pos) = (r.load_pos, r.store_pos);
            let fits = delta > 0
                && delta <= left - consumed
                && r.fire_pos + bs.fires.len() <= trace.fire_vals.len()
                && load_pos + bs.loads.len() <= trace.load_addrs.len()
                && store_pos + bs.stores.len() <= trace.store_ops.len()
                // Phase A (read-only): every load must see untainted data
                // at its golden address. Checked before anything mutates.
                && bs.loads.iter().enumerate().all(|(i, &(mem, w))| {
                    let addr = trace.load_addrs[load_pos + i] as usize;
                    !self.mem_ref(mem).taint_any(addr, w as usize)
                });
            if !fits {
                // Chain breaks before this block commits: hand it to the
                // per-fire engine. Its entry bookkeeping already happened
                // (at `enter_block` for the first block, inline below for
                // chained ones), so only the exec state is materialized.
                if let Some(ei) = chained_at {
                    let args = trace.entry_args[ei].clone();
                    let zt = vec![0u64; args.len()];
                    self.materialize_block(block, args, zt);
                }
                return consumed;
            }
            // Commit: recorded stores land with their golden values (a
            // clean store is what washes taint), loads count in the
            // access tally.
            for (i, &(mem, w)) in bs.stores.iter().enumerate() {
                let (addr, val) = trace.store_ops[store_pos + i];
                let m = self.mem(mem);
                m.write(addr, w as usize, val).expect("golden store stays in bounds");
                m.taint_write(addr, w as usize, 0);
            }
            for &(mem, _) in &bs.loads {
                self.mem(mem).reads += 1;
            }
            let n = self.cdfg.blocks[block].nodes.len();
            self.stats.nodes_executed += n as u64;
            self.stats.memo_hits += bs.n_memoizable;
            self.stats.warp_blocks += 1;
            self.stats.mem_reads += bs.loads.len() as u64;
            self.stats.mem_writes += bs.stores.len() as u64;
            self.stats.compute_cycles += delta;
            self.cycle += delta;
            consumed += delta;
            if chained_at.is_none() {
                self.exec = None;
            }
            let block_pos = {
                let r = self.replay.as_mut().unwrap();
                r.fire_pos += bs.fires.len();
                r.load_pos += bs.loads.len();
                r.store_pos += bs.stores.len();
                r.block_pos
            };
            // The recorded successor entry stands in for the terminator:
            // with every value golden, the branch goes exactly where the
            // golden run went. No next entry means the golden run
            // finished here. Entering the successor ourselves (counter +
            // cursor, no exec state) keeps the chain allocation-free.
            match trace.entries.get(block_pos).copied() {
                Some((b2, c2)) => {
                    debug_assert_eq!(c2, self.cycle, "warped terminator out of step with the trace");
                    self.replay.as_mut().unwrap().block_pos += 1;
                    self.stats.blocks_executed += 1;
                    block = b2 as usize;
                    entry_cycle = c2;
                    chained_at = Some(block_pos);
                }
                None => {
                    self.finish_with(AccelState::Done);
                    return consumed;
                }
            }
        }
    }

    /// One-pass block execution: batch every schedule event of the
    /// running block when the whole block fits inside the caller's cycle
    /// budget. Fires run in schedule order at their scheduled cycles
    /// (bulk-charging the skipped compute cycles) and the terminator runs
    /// at the block's terminator cycle — exactly the sequence per-event
    /// stepping would produce, minus the advance-loop and `step_event`
    /// scan paid at every intermediate event cycle.
    ///
    /// Unlike the whole-block warp this path tolerates taint anywhere:
    /// tainted loads, tainted entry arguments, even control poison. Every
    /// node still goes through [`Self::exec_node`], so memoization,
    /// taint propagation, access-time fate transitions, stuck-bit
    /// reassertion and trace-cursor bookkeeping are byte-identical to
    /// per-fire stepping; it is a pure batching of the event loop. This
    /// is what keeps stuck-at campaigns fast: a permanent fault's taint
    /// cone (blocks whose loads genuinely observe the stuck byte) cannot
    /// be warped, but its blocks collapse to one pass each instead of an
    /// event-queue iteration per fire cycle.
    fn try_cone(&mut self, left: u64) -> u64 {
        if self.engine != AccelEngine::Event || self.recording.is_some() {
            return 0;
        }
        let Some(sched) = self.schedule.clone() else { return 0 };
        {
            // Fresh block instance only (nothing issued or in flight),
            // and the whole block must fit the budget so DMA stop
            // patterns, ladder rungs and early-termination polls observe
            // identical cycle boundaries to per-fire stepping.
            let Some(ex) = self.exec.as_ref() else { return 0 };
            if ex.sched_pos != 0
                || !ex.pending.is_empty()
                || ex.remaining != self.cdfg.blocks[ex.block].nodes.len()
            {
                return 0;
            }
            let delta =
                (ex.entry_cycle + sched.blocks[ex.block].term_rel as u64).saturating_sub(self.cycle);
            if delta == 0 || delta > left {
                return 0;
            }
        }
        let mut ex = self.exec.take().expect("checked above");
        let bs = &sched.blocks[ex.block];
        let start = self.cycle;
        for &(r, ni) in &bs.fires {
            let at = ex.entry_cycle + r as u64;
            if at > self.cycle {
                self.stats.compute_cycles += at - self.cycle;
                self.cycle = at;
            }
            ex.sched_pos += 1;
            if !self.exec_node(&mut ex, ni as usize, at) {
                // Datapath error: the accelerator finished at this fire's
                // cycle; report exactly the cycles consumed so far.
                return self.cycle - start;
            }
        }
        let term = ex.entry_cycle + bs.term_rel as u64;
        self.stats.compute_cycles += term - self.cycle;
        self.cycle = term;
        // Every completion is due by the terminator cycle by schedule
        // construction: retire them all and run the terminator.
        for &(due, ni) in &ex.pending {
            debug_assert!(due <= term, "completion past the terminator cycle");
            ex.done[ni as usize] = true;
            ex.remaining -= 1;
        }
        ex.pending.clear();
        debug_assert_eq!(ex.remaining, 0, "one-pass block left nodes unfired");
        self.run_terminator(ex);
        self.cycle - start
    }

    /// The next cycle at which anything fires or the terminator runs.
    /// Always strictly ahead of `self.cycle`: the schedule's first fire
    /// is at relative cycle 1, and past the last fire the terminator
    /// cycle is itself beyond every completion.
    fn next_event_cycle(&self) -> u64 {
        let ex = self.exec.as_ref().expect("running without exec state");
        let bs = &self.schedule.as_ref().expect("event engine without schedule").blocks[ex.block];
        let rel = match bs.fires.get(ex.sched_pos as usize) {
            Some(&(r, _)) => r,
            None => bs.term_rel,
        };
        let next = ex.entry_cycle + rel as u64;
        debug_assert!(next > self.cycle, "schedule event not in the future");
        next.max(self.cycle + 1)
    }

    /// Process one event cycle (`self.cycle`): retire due completions,
    /// run the terminator once the block has drained, otherwise issue
    /// this cycle's precomputed fires in schedule order.
    fn step_event(&mut self) {
        let now = self.cycle;
        let mut ex = self.exec.take().expect("running without exec state");
        let mut i = 0;
        while i < ex.pending.len() {
            if ex.pending[i].0 <= now {
                let (_, ni) = ex.pending.swap_remove(i);
                ex.done[ni as usize] = true;
                ex.remaining -= 1;
            } else {
                i += 1;
            }
        }
        if ex.remaining == 0 {
            self.run_terminator(ex);
            return;
        }
        let sched = self.schedule.clone().expect("event engine without schedule");
        let bs = &sched.blocks[ex.block];
        let rel = (now - ex.entry_cycle) as u32;
        while let Some(&(r, ni)) = bs.fires.get(ex.sched_pos as usize) {
            if r != rel {
                break;
            }
            ex.sched_pos += 1;
            if !self.exec_node(&mut ex, ni as usize, now) {
                return;
            }
        }
        self.exec = Some(ex);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::CdfgBuilder;
    use crate::sram::SramKind;
    use marvel_isa::AluOp;

    /// Sum the first `n` u64 words of SPM0 into SPM1[0].
    fn sum_accel(fu: FuConfig) -> Accelerator {
        let mut g = CdfgBuilder::new();
        let entry = g.block(1); // arg0 = n
        let body = g.block(3); // i, n, acc
        let done = g.block(1); // acc
        g.select(entry);
        let n = g.arg(0);
        let z = g.konst(0);
        g.jump(body, &[z, n, z]);
        g.select(body);
        let i = g.arg(0);
        let n = g.arg(1);
        let acc = g.arg(2);
        let eight = g.konst(8);
        let addr = g.alu(AluOp::Mul, i, eight);
        let v = g.load(MemRef::Spm(0), 8, addr);
        let acc2 = g.alu(AluOp::Add, acc, v);
        let one = g.konst(1);
        let i2 = g.alu(AluOp::Add, i, one);
        let more = g.alu(AluOp::Sltu, i2, n);
        g.branch(more, body, &[i2, n, acc2], done, &[acc2]);
        g.select(done);
        let acc = g.arg(0);
        let z = g.konst(0);
        g.store(MemRef::Spm(1), 8, z, acc);
        g.finish();

        let spm0 = Sram::new("IN", SramKind::Spm, 256, 2);
        let spm1 = Sram::new("OUT", SramKind::Spm, 8, 1);
        Accelerator::new("sum", g.build().unwrap(), fu, vec![spm0, spm1], vec![], 1)
    }

    fn run(a: &mut Accelerator, max: u64) -> AccelState {
        for _ in 0..max {
            match a.tick() {
                AccelState::Running | AccelState::Idle => {}
                s => return s,
            }
        }
        panic!("accelerator did not finish");
    }

    #[test]
    fn computes_sum() {
        let mut a = sum_accel(FuConfig::default());
        for i in 0..16u64 {
            a.spms[0].write(i * 8, 8, i + 1).unwrap();
        }
        a.start(&[16]);
        let st = run(&mut a, 10_000);
        assert_eq!(st, AccelState::Done);
        assert_eq!(a.spms[1].read(0, 8).unwrap(), 136); // 1+..+16
        assert!(a.stats.compute_cycles > 16);
        assert!(a.irq);
    }

    /// A block with 16 independent FP multiplies: FU-bound, not
    /// latency-bound.
    fn parallel_accel(fu: FuConfig) -> Accelerator {
        let mut g = CdfgBuilder::new();
        let b = g.block(0);
        g.select(b);
        let mut prods = Vec::new();
        for i in 0..16u64 {
            let addr = g.konst(i * 8);
            let v = g.load(MemRef::Spm(0), 8, addr);
            let k = g.fconst(1.5);
            prods.push(g.fmul(v, k));
        }
        for (i, p) in prods.into_iter().enumerate() {
            let addr = g.konst(i as u64 * 8);
            g.store(MemRef::Spm(1), 8, addr, p);
        }
        g.finish();
        let spm0 = Sram::new("IN", SramKind::Spm, 128, 4);
        let spm1 = Sram::new("OUT", SramKind::Spm, 128, 4);
        Accelerator::new("par", g.build().unwrap(), fu, vec![spm0, spm1], vec![], 0)
    }

    #[test]
    fn fewer_fus_run_slower() {
        // A serial loop is latency-bound (FU count irrelevant); a parallel
        // block is FU-bound. Check both properties.
        let mut fast = parallel_accel(FuConfig::uniform(16));
        let mut slow = parallel_accel(FuConfig::uniform(1));
        for a in [&mut fast, &mut slow] {
            for i in 0..16u64 {
                a.spms[0].write(i * 8, 8, 1.0f64.to_bits()).unwrap();
            }
            a.start(&[]);
            run(a, 100_000);
        }
        assert!(
            slow.stats.compute_cycles > fast.stats.compute_cycles,
            "slow {} vs fast {}",
            slow.stats.compute_cycles,
            fast.stats.compute_cycles
        );
        assert_eq!(slow.spms[1].read(0, 8), Some(1.5f64.to_bits()));

        let mut s1 = sum_accel(FuConfig::uniform(8));
        let mut s2 = sum_accel(FuConfig::uniform(2));
        for a in [&mut s1, &mut s2] {
            for i in 0..16u64 {
                a.spms[0].write(i * 8, 8, 1).unwrap();
            }
            a.start(&[16]);
            run(a, 100_000);
        }
        // Serial loop: nearly identical runtimes.
        let (c1, c2) = (s1.stats.compute_cycles as i64, s2.stats.compute_cycles as i64);
        assert!((c1 - c2).abs() <= c1 / 4, "serial loop should be latency-bound: {c1} vs {c2}");
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mut a = sum_accel(FuConfig::default());
        a.start(&[64]); // 64*8 = 512 > 256-byte SPM
        let st = run(&mut a, 100_000);
        assert!(matches!(st, AccelState::Error(_)));
        assert_eq!(a.mmr.peek(crate::mmr::MMR_STATUS) & STATUS_ERROR, STATUS_ERROR);
    }

    #[test]
    fn spm_fault_changes_result() {
        let mut a = sum_accel(FuConfig::default());
        for i in 0..8u64 {
            a.spms[0].write(i * 8, 8, 2).unwrap();
        }
        a.spms[0].flip_bit(0); // word 0 bit 0: 2 -> 3
        a.start(&[8]);
        run(&mut a, 10_000);
        assert_eq!(a.spms[1].read(0, 8).unwrap(), 17);
        assert_eq!(a.spms[0].fate(), Some(crate::sram::SramFate::Read));
    }

    #[test]
    fn restart_after_reset() {
        let mut a = sum_accel(FuConfig::default());
        for i in 0..4u64 {
            a.spms[0].write(i * 8, 8, 5).unwrap();
        }
        a.start(&[4]);
        run(&mut a, 10_000);
        let c1 = a.stats.compute_cycles;
        a.reset();
        a.start(&[4]);
        let st = run(&mut a, 10_000);
        assert_eq!(st, AccelState::Done);
        assert_eq!(a.stats.compute_cycles, c1, "deterministic re-execution");
    }

    #[test]
    fn area_grows_with_fus_and_srams() {
        let small = sum_accel(FuConfig::uniform(1));
        let big = sum_accel(FuConfig::uniform(16));
        assert!(big.area() > small.area());
    }

    /// Run to completion via the event engine in one `advance` call.
    fn run_event(a: &mut Accelerator, max: u64) -> AccelState {
        assert!(a.prepare_event_engine(), "design must be schedulable");
        assert!(a.set_engine_event());
        let (st, _) = a.advance(max);
        st
    }

    #[test]
    fn event_engine_matches_cycle_oracle() {
        let mut cyc = sum_accel(FuConfig::default());
        let mut evt = sum_accel(FuConfig::default());
        for a in [&mut cyc, &mut evt] {
            for i in 0..16u64 {
                a.spms[0].write(i * 8, 8, i + 1).unwrap();
            }
            a.start(&[16]);
        }
        assert_eq!(run(&mut cyc, 10_000), AccelState::Done);
        assert_eq!(run_event(&mut evt, 10_000), AccelState::Done);
        assert_eq!(evt.spms[1].read(0, 8), cyc.spms[1].read(0, 8));
        assert_eq!(evt.cycle, cyc.cycle, "identical completion cycle");
        assert_eq!(evt.stats.compute_cycles, cyc.stats.compute_cycles);
        assert_eq!(evt.stats.nodes_executed, cyc.stats.nodes_executed);
        assert_eq!(evt.stats.mem_reads, cyc.stats.mem_reads);
        assert_eq!(evt.stats.mem_writes, cyc.stats.mem_writes);
        assert_eq!(evt.stats.blocks_executed, cyc.stats.blocks_executed);
    }

    #[test]
    fn event_engine_is_stop_pattern_independent() {
        // Advancing in awkward chunks must land on the same state as one
        // big advance: lazy retirement only happens at event cycles, so
        // where the harness pauses cannot be observable.
        let mut whole = parallel_accel(FuConfig::uniform(2));
        let mut chunked = parallel_accel(FuConfig::uniform(2));
        for a in [&mut whole, &mut chunked] {
            for i in 0..16u64 {
                a.spms[0].write(i * 8, 8, 2.0f64.to_bits()).unwrap();
            }
            a.start(&[]);
            assert!(a.prepare_event_engine());
            assert!(a.set_engine_event());
        }
        let (st, used) = whole.advance(10_000);
        assert_eq!(st, AccelState::Done);
        let mut total = 0;
        loop {
            let (st, n) = chunked.advance(3);
            total += n;
            if st == AccelState::Done {
                break;
            }
            assert!(total < 10_000);
        }
        assert_eq!(total, used, "same completion cycle");
        assert_eq!(chunked.cycle, whole.cycle);
        assert_eq!(chunked.spms[1].bytes(), whole.spms[1].bytes());
    }

    #[test]
    fn event_engine_reports_oob_error() {
        let mut a = sum_accel(FuConfig::default());
        a.start(&[64]); // 64*8 = 512 > 256-byte SPM
        let st = run_event(&mut a, 100_000);
        assert!(matches!(st, AccelState::Error(_)));
        let mut oracle = sum_accel(FuConfig::default());
        oracle.start(&[64]);
        run(&mut oracle, 100_000);
        assert_eq!(a.cycle, oracle.cycle, "error at the identical cycle");
    }

    #[test]
    fn golden_replay_memoizes_untainted_nodes() {
        // Record the golden firing trace.
        let mut g = sum_accel(FuConfig::default());
        for i in 0..16u64 {
            g.spms[0].write(i * 8, 8, i + 1).unwrap();
        }
        let pristine = g.clone();
        g.start(&[16]);
        assert!(g.prepare_event_engine());
        assert!(g.set_engine_event());
        g.begin_trace_recording();
        assert_eq!(g.advance(10_000).0, AccelState::Done);
        let trace = Arc::new(g.take_trace().unwrap());

        // Fault-free replay with taint planes on: every non-trivial fire
        // memoizes, nothing is evaluated.
        let mut r = pristine.clone();
        r.prepare_event_engine();
        r.set_engine_event();
        r.arm_replay(trace.clone());
        r.enable_taint("none");
        r.start(&[16]);
        assert_eq!(r.advance(10_000).0, AccelState::Done);
        assert_eq!(r.spms[1].read(0, 8), Some(136));
        assert_eq!(r.stats.node_evals, 0, "fault-free replay evaluates nothing");
        assert!(r.stats.memo_hits > 0);
        assert!(r.replay_aligned());

        // A faulty replay re-evaluates only the taint cone and still
        // matches the cycle oracle bit-for-bit.
        let mut f = pristine.clone();
        f.prepare_event_engine();
        f.set_engine_event();
        f.arm_replay(trace);
        f.enable_taint("spm0");
        f.spms[0].flip_bit(3); // word 0: 1 -> 9
        f.start(&[16]);
        assert_eq!(f.advance(10_000).0, AccelState::Done);
        let mut oracle = pristine.clone();
        oracle.spms[0].flip_bit(3);
        oracle.start(&[16]);
        run(&mut oracle, 10_000);
        assert_eq!(f.spms[1].read(0, 8), oracle.spms[1].read(0, 8));
        assert_eq!(f.cycle, oracle.cycle);
        assert!(f.stats.node_evals > 0, "the taint cone is evaluated");
        assert!(
            f.stats.node_evals < oracle.stats.nodes_executed / 2,
            "most fires memoize: {} evals vs {} golden fires",
            f.stats.node_evals,
            oracle.stats.nodes_executed
        );
    }
}
