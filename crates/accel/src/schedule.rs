//! Static CDFG schedules and golden firing traces for the event-driven
//! engine.
//!
//! The cycle engine's issue logic is value-independent: node readiness
//! depends only on operand completion, FU issue slots refresh every
//! cycle, latencies are static ([`NodeOp::latency`] plus the memory's
//! read latency), and the per-memory load/store ordering is structural
//! (operand indices always point backwards, enforced by
//! [`Cdfg::validate`](crate::air::Cdfg::validate)). The only
//! value-dependent behaviours are terminator directions and
//! out-of-bounds accesses — both still handled by the engine at run
//! time. A block's fire pattern can therefore be computed once per
//! (design, FU config, memory timing) by replaying the scheduler
//! skeleton without values, and the engine can then jump straight from
//! event cycle to event cycle instead of scanning every node every
//! cycle.

use crate::air::{Block, Cdfg, FuClass, MemRef, NodeOp, NODE_NONE};
use crate::engine::FuConfig;

/// Port count and read latency of one memory, as the scheduler sees it.
#[derive(Debug, Clone, Copy)]
pub struct MemTiming {
    pub ports: usize,
    pub read_latency: u32,
}

/// One node issue: (cycle relative to block entry, node index).
pub type Fire = (u32, u32);

/// Value-independent fire pattern of one block: every node issue in
/// (cycle, issue-order) order, plus the relative cycle at which the
/// terminator executes once the last node has retired. Fire cycles and
/// the terminator cycle never coincide — the terminator only runs on the
/// first cycle with nothing left to issue or retire.
///
/// `loads`/`stores`/`n_memoizable` are static manifests over the fire
/// list, used by the engine's whole-block warp path: when a block
/// instance provably touches no tainted data, the engine applies the
/// recorded stores and skips per-fire execution entirely.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    pub fires: Vec<Fire>,
    pub term_rel: u32,
    /// `(mem, width)` of every load, in fire order.
    pub loads: Vec<(MemRef, u8)>,
    /// `(mem, width)` of every store, in fire order.
    pub stores: Vec<(MemRef, u8)>,
    /// Fires that count as memo hits when a whole instance replays from
    /// the golden trace (everything except Const/Arg/Store — mirroring
    /// the per-fire memo rules).
    pub n_memoizable: u64,
}

/// Static schedule of a whole CDFG under one FU/memory configuration.
/// Built by [`build_schedule`]; owned by the accelerator behind an `Arc`
/// so clones and resets share it.
#[derive(Debug, Clone)]
pub struct StaticSchedule {
    pub blocks: Vec<BlockSchedule>,
}

/// Golden node-firing trace of one fault-free run: the value produced by
/// every fired node in global fire order, plus the block-entry sequence
/// (block index, absolute entry cycle) used for replay alignment. While
/// a faulty run's control path matches `entries`, untainted nodes are
/// bit-identical to the golden run and can take their value from
/// `fire_vals` instead of re-evaluating.
///
/// The entry arguments, `load_addrs` and `store_ops` feed the whole-block warp
/// path: with the per-load golden addresses a block instance can be
/// proven untainted up front (addresses are golden as long as every
/// *earlier* load in fire order was clean), after which only the
/// recorded stores need applying and the recorded successor entry
/// provides the terminator decision.
#[derive(Debug, Clone, Default)]
pub struct GoldenTrace {
    pub fire_vals: Vec<u64>,
    pub entries: Vec<(u32, u64)>,
    /// Block-entry argument values of every entry, concatenated in entry
    /// order (see [`entry_args`](Self::entry_args)).
    pub entry_arg_vals: Vec<u64>,
    /// Start of each entry's arguments in `entry_arg_vals`, parallel to
    /// `entries`.
    pub entry_arg_at: Vec<usize>,
    /// Golden address of every load, in global fire order.
    pub load_addrs: Vec<u64>,
    /// Golden `(address, value)` of every store, in global fire order.
    pub store_ops: Vec<(u64, u64)>,
}

impl GoldenTrace {
    /// Argument values of block entry `i`.
    pub fn entry_args(&self, i: usize) -> &[u64] {
        let end = self.entry_arg_at.get(i + 1).copied().unwrap_or(self.entry_arg_vals.len());
        &self.entry_arg_vals[self.entry_arg_at[i]..end]
    }
}

/// Bound on the relative cycles a single block may take before the
/// builder declares the design unschedulable (e.g. an FU class with zero
/// units can starve a node forever). Callers then stay on the cycle
/// engine.
const BLOCK_CYCLE_BOUND: u64 = 1 << 22;

/// Compute the static schedule, or `None` if any block fails to drain
/// within `BLOCK_CYCLE_BOUND` cycles.
pub fn build_schedule(
    cdfg: &Cdfg,
    fu: &FuConfig,
    spms: &[MemTiming],
    regbanks: &[MemTiming],
) -> Option<StaticSchedule> {
    let timing = |m: MemRef| match m {
        MemRef::Spm(i) => spms.get(i).copied(),
        MemRef::RegBank(i) => regbanks.get(i).copied(),
    };
    let mut blocks = Vec::with_capacity(cdfg.blocks.len());
    for b in &cdfg.blocks {
        blocks.push(schedule_block(b, fu, &timing)?);
    }
    Some(StaticSchedule { blocks })
}

/// Replay the cycle engine's retire → terminator-check → issue skeleton
/// for one block, with real FU/port arbitration and latencies but no
/// values. Must mirror `Accelerator::step_block` exactly — the schedule
/// fuzzer pins the two against each other cycle-for-cycle.
fn schedule_block(
    b: &Block,
    fu: &FuConfig,
    timing: &impl Fn(MemRef) -> Option<MemTiming>,
) -> Option<BlockSchedule> {
    let n = b.nodes.len();
    let mut done = vec![false; n];
    let mut started = vec![false; n];
    let mut pending: Vec<(u64, u32)> = Vec::new();
    let mut remaining = n;
    let mut fires: Vec<Fire> = Vec::new();
    let mut rel: u64 = 0;
    loop {
        rel += 1;
        if rel > BLOCK_CYCLE_BOUND {
            return None;
        }
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= rel {
                let (_, ni) = pending.swap_remove(i);
                done[ni as usize] = true;
                remaining -= 1;
            } else {
                i += 1;
            }
        }
        if remaining == 0 {
            let mut loads = Vec::new();
            let mut stores = Vec::new();
            let mut n_memoizable = 0u64;
            for &(_, ni) in &fires {
                match b.nodes[ni as usize].op {
                    NodeOp::Load { mem, w } => {
                        loads.push((mem, w));
                        n_memoizable += 1;
                    }
                    NodeOp::Store { mem, w } => stores.push((mem, w)),
                    NodeOp::Const(_) | NodeOp::Arg(_) => {}
                    _ => n_memoizable += 1,
                }
            }
            return Some(BlockSchedule {
                fires,
                term_rel: u32::try_from(rel).ok()?,
                loads,
                stores,
                n_memoizable,
            });
        }
        let mut int_left = fu.int_alu;
        let mut fpa_left = fu.fp_add;
        let mut fpm_left = fu.fp_mul;
        let mut mem_used: Vec<(MemRef, usize)> = Vec::new();
        for ni in 0..n {
            if started[ni] {
                continue;
            }
            let node = b.nodes[ni];
            let ready = [node.a, node.b, node.c].iter().all(|&o| o == NODE_NONE || done[o as usize]);
            if !ready {
                continue;
            }
            if let Some(m) = node.op.is_mem() {
                let blocked = b.nodes[..ni].iter().enumerate().any(|(pi, p)| {
                    p.op.is_mem() == Some(m) && !done[pi] && (p.op.is_store() != node.op.is_store())
                });
                if blocked {
                    continue;
                }
            }
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
                    let ports = timing(m)?.ports;
                    match mem_used.iter_mut().find(|(mm, _)| *mm == m) {
                        Some((_, used)) => {
                            if *used >= ports {
                                continue;
                            }
                            *used += 1;
                        }
                        None => mem_used.push((m, 1)),
                    }
                }
            }
            started[ni] = true;
            fires.push((u32::try_from(rel).ok()?, ni as u32));
            let mut lat = node.op.latency();
            if let NodeOp::Load { mem, .. } = node.op {
                lat += timing(mem)?.read_latency;
            }
            if lat == 0 {
                done[ni] = true;
                remaining -= 1;
            } else {
                pending.push((rel + lat as u64, ni as u32));
            }
        }
    }
}
