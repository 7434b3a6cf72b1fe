//! Allocation guard: the simulators' per-cycle and per-run loops allocate
//! nothing, so a run's heap traffic is a small constant, whatever its
//! block instances, DMA beats or cycles. A counting global allocator
//! counts only on the thread that simulates, so tests running in parallel
//! cannot pollute each other's counts; nothing here reads a clock.
//!
//! - An event-engine DSA injection run from a shipped-config ladder rung
//!   (a MERGESORT scratchpad transient, taint planes on as every event
//!   run has them) allocates at most [`DSA_RUN_ALLOCS`] times, and so
//!   does a run twice as long.
//! - A fault-free `System::run` from a CPU checkpoint allocates at most
//!   [`CPU_ALLOCS_PER_CYCLE`] times per simulated cycle.

use gem5_marvel::core::{
    build_dsa_ladder, CampaignConfig, DsaGolden, DsaHarness, DsaOutcome, FaultMask, FaultModel, Golden,
    Target, CPU_GOLDEN_BUDGET, DSA_GOLDEN_BUDGET,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{RunOutcome, System};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown find no slot.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (fresh or resized) `f` makes on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get))
}

/// Allocations one DSA injection run may make: the taint tracer it gets,
/// the hops the tracer records and the output buffer — a constant, not a
/// count of block instances, DMA beats or cycles (about 16,000 per run
/// when each block instance and DMA beat allocated).
const DSA_RUN_ALLOCS: u64 = 32;

/// Allocations per simulated cycle of a fault-free CPU run (1.69 on
/// qsort/RISC-V when the issue stage split its deferred loads into new
/// vectors every cycle).
const CPU_ALLOCS_PER_CYCLE: f64 = 0.01;

#[test]
fn dsa_event_run_allocates_a_constant() {
    // MERGESORT's TEMP scratchpad: a flipped bit there rides the merge
    // loops' block arguments, so thousands of block instances step fire
    // by fire instead of warping whole — the path a per-block allocation
    // would show on.
    let d = accel::design("MERGESORT");
    let golden = DsaGolden::prepare((d.make)(FuConfig::default()), DSA_GOLDEN_BUDGET);
    let ladder = build_dsa_ladder(&golden, &CampaignConfig::default());
    assert_eq!(ladder.len(), 8, "the shipped DSA ladder");
    let target = Target::Spm { accel: 0, mem: 1 };
    let cycles = ladder.cycles();
    // A worker's harness, restored from rung `k` and driven through one
    // TEMP transient injected right after it, as a campaign run is;
    // returns the allocations and the block instances stepped per fire.
    let mut h = golden.harness.clone();
    let mut run_from = |k: usize| {
        let mask =
            FaultMask { target, bits: vec![7], model: FaultModel::Transient { cycle: cycles[k] + 1 } };
        let (per_fire, n) = allocs(|| {
            h.reset_from(ladder.rung(k));
            assert!(h.accel.set_engine_event(), "MERGESORT must be schedulable");
            h.accel.enable_taint(&target.name());
            let stepped = |h: &DsaHarness| h.accel.stats.blocks_executed - h.accel.stats.warp_blocks;
            let before = stepped(&h);
            let out = h.run(Some(&mask), golden.watchdog());
            assert!(matches!(out, DsaOutcome::Done { .. }), "{out:?}");
            stepped(&h) - before
        });
        (n, per_fire)
    };
    // From rung 5, then from rung 2: the second run simulates twice the
    // cycles. The first run warms the worker, as the runs before warm a
    // campaign worker: its buffers reach their sizes.
    let (short, long) = (5, 2);
    run_from(long);
    let spans = [short, long].map(|k| golden.cycles - cycles[k]);
    assert!(spans[1].abs_diff(2 * spans[0]) <= 2, "rungs are evenly spaced: {spans:?}");
    for (k, span) in [short, long].into_iter().zip(spans) {
        let (n, per_fire) = run_from(k);
        assert!(per_fire >= 1_000, "only {per_fire} block instances stepped per fire from rung {k}");
        assert!(
            n <= DSA_RUN_ALLOCS,
            "a {span}-cycle DSA event run stepping {per_fire} block instances per fire allocated \
             {n} times; the bound is {DSA_RUN_ALLOCS}"
        );
    }
}

fn cpu_golden(bench: &str, isa: Isa) -> Golden {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, CPU_GOLDEN_BUDGET).unwrap()
}

#[test]
fn cpu_fault_free_run_allocates_below_a_hundredth_per_cycle() {
    for (bench, isa) in [("qsort", Isa::RiscV), ("sha", Isa::Arm)] {
        let golden = cpu_golden(bench, isa);
        let mut sys: System = golden.ckpt.clone();
        let start = sys.cycle;
        let (out, n) = allocs(|| sys.run(start + golden.exec_cycles + 1));
        assert!(matches!(out, RunOutcome::Halted { .. }), "{bench}: {out:?}");
        let cycles = sys.cycle - start;
        let per_cycle = n as f64 / cycles as f64;
        assert!(
            per_cycle <= CPU_ALLOCS_PER_CYCLE,
            "{bench}/{isa:?}: a fault-free run allocated {n} times in {cycles} cycles \
             ({per_cycle:.4} per cycle; the bound is {CPU_ALLOCS_PER_CYCLE})"
        );
    }
}
