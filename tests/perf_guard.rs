//! Perf guards for the campaign engine, in bytes and cycles rather than
//! wall-clock so CI noise cannot flake them: on an early-termination-heavy
//! campaign, the dirty reset must touch a small bounded slice of the
//! checkpoint — not degrade back into a full-state copy — and on a
//! late-injection campaign, the checkpoint ladder must cut the fault-free
//! prefix each run re-simulates down to at most one inter-rung gap.

use gem5_marvel::core::{
    run_campaign, run_dsa_campaign, run_masks, CampaignConfig, DsaEngine, DsaGolden, DsaOutcome,
    FaultKind, FaultMask, FaultModel, Golden, MaskGenerator, ResetMode, Target, TelemetryConfig,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::telemetry::{PhaseId, Registry, SpanCollector};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::air::{CdfgBuilder, MemRef};
use marvel_accel::{Accelerator, DmaDir, DmaJob, FuConfig, Sram, SramKind};
use marvel_core::DsaHarness;
use marvel_isa::AluOp;

/// Per-reset byte budget. A full checkpoint clone copies the entire
/// multi-megabyte `System` (4 MiB RAM + 1 MiB L2 alone); a dirty reset
/// after a masked-early run must stay well over an order of magnitude
/// below that.
const RESET_BYTE_BUDGET: u64 = 256 * 1024;

#[test]
fn dirty_reset_touches_bounded_bytes_on_early_terminated_runs() {
    let bin = assemble(&mibench::build("crc32"), Isa::RiscV).unwrap();
    let mut sys = gem5_marvel::soc::System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    let g = Golden::prepare(sys, 80_000_000).unwrap();

    let registry = Registry::new();
    // workers=1: a single worker context, so run 1 pays the clone and the
    // remaining n-1 runs all go through reset_from.
    // lane_width 0: this guard bounds the *scalar* dirty-reset footprint
    // (one reset per run); lane packing shares resets across a pass and
    // has its own utilization guard below.
    let cc = CampaignConfig {
        n_faults: 48,
        workers: 1,
        reset_mode: ResetMode::Dirty,
        lane_width: 0,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ladder_rungs: 0,
        ..Default::default()
    };
    // PrfInt transients mostly land in dead registers: the campaign is
    // dominated by masked-early runs, the case the zero-copy engine is
    // built around.
    let res = run_campaign(&g, Target::PrfInt, &cc);
    assert!(
        res.early_termination_rate() > 0.5,
        "guard needs an early-termination-heavy campaign, got {:.0}%",
        res.early_termination_rate() * 100.0
    );

    let snap = registry.histogram("campaign.reset_bytes").expect("registry is live").snapshot();
    assert_eq!(snap.count, 47, "every run after the first must reset, not clone");
    let mean = snap.mean();
    assert!(
        mean <= RESET_BYTE_BUDGET as f64,
        "mean dirty-reset footprint {mean:.0} B exceeds the {RESET_BYTE_BUDGET} B budget"
    );
}

#[test]
fn ladder_bounds_residual_prefix_on_late_injections() {
    let bin = assemble(&mibench::build("crc32"), Isa::RiscV).unwrap();
    let mut sys = gem5_marvel::soc::System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    let g = Golden::prepare(sys, 80_000_000).unwrap();

    let registry = Registry::new();
    const RUNGS: u64 = 8;
    // lane_width 0: the guard asserts one prefix_cycles sample per run,
    // which is a scalar-engine invariant — a lane pass simulates the
    // residual prefix once for every lane it carries.
    let cc = CampaignConfig {
        workers: 2,
        reset_mode: ResetMode::Dirty,
        ladder_rungs: RUNGS as usize,
        convergence_exit: true,
        lane_width: 0,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..Default::default()
    };
    // Masks windowed into the last fifth of the injection window — the
    // worst case for the full-prefix engine (each run used to re-simulate
    // ≥80% of the golden run fault-free before the flip even landed).
    let w = g.injection_window();
    let late = (w.start + (w.end - w.start) * 4 / 5)..w.end;
    let n = 32;
    let mut gen = MaskGenerator::new(0x1ADDE2);
    let masks =
        gen.single_bit(Target::PrfInt, g.ckpt.bit_len(Target::PrfInt), FaultKind::Transient, late, n);
    let records = run_masks(&g, &masks, &cc);
    assert_eq!(records.len(), n);

    // Residual fault-free prefix actually simulated per run (injection
    // cycle minus the restored rung's cycle). With K rungs it is bounded
    // by one inter-rung gap, exec/(K+1) — allow exec/K for rounding slack.
    // Without the ladder this mean sits at ≥ 0.8 × exec_cycles.
    let snap = registry.histogram("campaign.prefix_cycles").expect("registry is live").snapshot();
    assert_eq!(snap.count, n as u64, "every transient run must report its residual prefix");
    let budget = (g.exec_cycles / RUNGS) as f64;
    let mean = snap.mean();
    assert!(
        mean <= budget,
        "mean residual prefix {mean:.0} cycles exceeds the inter-rung budget {budget:.0} \
         (exec_cycles {})",
        g.exec_cycles
    );

    // And the ladder must actually be skipping work: the prefix cycles
    // skipped per run dwarf the residual simulated.
    let skipped =
        registry.histogram("campaign.prefix_cycles_skipped").expect("registry is live").snapshot();
    assert!(
        skipped.mean() >= 4.0 * budget,
        "skipped-prefix mean {:.0} is too small for a late-injection campaign",
        skipped.mean()
    );
}

/// Lane-utilization guard, in counters rather than wall-clock: on a
/// packable campaign (single-bit PRF transients) the lane engine must
/// actually pack nearly every run, keep the mean lanes-per-pass well
/// above the break-even point, and fork only a bounded fraction back to
/// scalar re-runs. A regression that silently degrades packing (masks
/// misgrouped, lanes forked eagerly, eligibility over-tightened) trips
/// this long before the wall-clock floor in the bench would.
#[test]
fn lane_packing_sustains_occupancy_and_bounded_forks() {
    let bin = assemble(&mibench::build("crc32"), Isa::RiscV).unwrap();
    let mut sys = gem5_marvel::soc::System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    let g = Golden::prepare(sys, 80_000_000).unwrap();

    let registry = Registry::new();
    let n = 96;
    let cc = CampaignConfig {
        n_faults: n,
        workers: 2,
        reset_mode: ResetMode::Dirty,
        ladder_rungs: 8,
        convergence_exit: true,
        lane_width: 64,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..Default::default()
    };
    let res = run_campaign(&g, Target::PrfInt, &cc);
    assert_eq!(res.n(), n);

    let passes = registry.counter("campaign.lane_passes").get();
    let packed = registry.counter("campaign.lane_runs_packed").get();
    let forks = registry.counter("campaign.lane_forks").get();
    assert!(passes > 0, "a packable campaign must run lane passes");
    // Single-bit transients on one target are all eligible; only chunks
    // of one (a ladder segment holding a lone mask) may fall out.
    assert!(packed >= n as u64 * 3 / 4, "only {packed} of {n} eligible runs were lane-packed");
    // Mean lanes per pass: with 8 rungs the masks split over 9 ladder
    // segments, so ~n/9 lanes share each pass — demand at least half
    // that, far above the ~2-lane break-even of a shared golden pass.
    let occupancy = packed as f64 / passes as f64;
    assert!(
        occupancy >= (n / 9) as f64 / 2.0,
        "mean lane occupancy {occupancy:.1} is below the utilization floor"
    );
    // Forks are safe but must stay the exception: a PRF-transient
    // campaign is overwhelmingly masked, so at most a quarter of packed
    // lanes may leave their pass for a scalar re-run.
    assert!(forks * 4 <= packed, "{forks} of {packed} packed lanes forked to scalar re-runs");
}

/// Elementwise OUT[i] = IN[i] * 3 over `n` elements — a workload where a
/// single flipped SPM bit taints exactly one element's dataflow cone, so
/// golden replay should memoize essentially everything else.
fn triple_harness(n: u64) -> DsaHarness {
    let bytes = (n * 8) as usize;
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
    let off = g.alu(AluOp::Mul, i, eight);
    let v = g.load(MemRef::Spm(0), 8, off);
    let three = g.konst(3);
    let prod = g.alu(AluOp::Mul, v, three);
    g.store(MemRef::Spm(1), 8, off, prod);
    let one = g.konst(1);
    let i2 = g.alu(AluOp::Add, i, one);
    let nn = g.konst(n);
    let more = g.alu(AluOp::Sltu, i2, nn);
    g.branch(more, body, &[i2], done, &[]);
    g.select(done);
    g.finish();
    let accel = Accelerator::new(
        "triple",
        g.build().unwrap(),
        FuConfig::default(),
        vec![Sram::new("IN", SramKind::Spm, bytes, 2), Sram::new("OUT", SramKind::Spm, bytes, 2)],
        vec![],
        0,
    );
    let mut ram = vec![0u8; bytes * 2];
    for (k, b) in ram.iter_mut().take(bytes).enumerate() {
        *b = (k as u8).wrapping_mul(13).wrapping_add(7);
    }
    DsaHarness::new(
        accel,
        ram,
        vec![DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: bytes }],
        vec![DmaJob { dir: DmaDir::ToRam, ram_off: bytes, mem: MemRef::Spm(1), mem_off: 0, len: bytes }],
        vec![],
        bytes..bytes * 2,
    )
}

/// Node evaluations per faulty replay run must be proportional to the
/// taint cone, not the design size: on the contained-taint elementwise
/// workload a single flipped bit taints one element's chain, so a full
/// event-engine run may re-evaluate only a handful of nodes while
/// everything else replays from the golden trace.
const TAINT_EVAL_BUDGET: u64 = 16;

#[test]
fn replay_bounds_node_evals_to_the_taint_cone() {
    let g = DsaGolden::prepare(triple_harness(64), 1_000_000);
    assert!(g.harness.accel.replay_armed(), "triple must be schedulable");

    // Fault-free oracle for the eval population: the cycle engine
    // re-evaluates every non-trivial node.
    let mut oracle = g.harness.clone();
    oracle.run(None, 1_000_000);
    let full_evals = oracle.accel.stats.node_evals;
    assert!(full_evals > 300, "triple(64) must evaluate hundreds of nodes, got {full_evals}");

    // Faulty event run: flip one bit of IN element 5 just after DMA-in
    // lands (cycle 68 of a 64-cycle DMA phase), before the element is
    // consumed.
    let mut h = g.harness.clone();
    assert!(h.accel.set_engine_event());
    h.accel.enable_taint("IN");
    let mask = FaultMask {
        target: Target::Spm { accel: 0, mem: 0 },
        bits: vec![5 * 64 + 3],
        model: FaultModel::Transient { cycle: 68 },
    };
    let out = h.run(Some(&mask), 1_000_000);
    match out {
        DsaOutcome::Done { output, .. } => {
            assert_ne!(output, g.output, "the tainted element must corrupt the output")
        }
        o => panic!("faulty run must still finish, got {o:?}"),
    }
    let stats = &h.accel.stats;
    assert!(
        stats.node_evals <= TAINT_EVAL_BUDGET,
        "faulty replay re-evaluated {} nodes; budget is {TAINT_EVAL_BUDGET} (full run: {full_evals})",
        stats.node_evals
    );
    assert!(
        stats.memo_hits >= full_evals - TAINT_EVAL_BUDGET,
        "replay must memoize the untainted remainder: {} hits of {full_evals} evals",
        stats.memo_hits
    );
}

/// Per-run sim-step wall time, as seen by the span layer: the
/// event-driven engine's SimStepDsa p50 must sit well below the cycle
/// oracle's on the same campaign. A relative ceiling keeps the guard
/// machine-independent while still catching an engine that silently
/// degrades to per-cycle scanning.
#[test]
fn event_engine_sim_step_p50_beats_cycle_oracle() {
    let d = accel::design("FFT");
    let g = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    assert!(g.harness.accel.replay_armed());
    let target = Target::Spm { accel: 0, mem: 0 };
    let p50 = |engine: DsaEngine| {
        let spans = SpanCollector::enabled();
        let cc = CampaignConfig {
            n_faults: 12,
            workers: 2,
            dsa_engine: engine,
            telemetry: TelemetryConfig { spans: spans.clone(), ..Default::default() },
            ladder_rungs: 0,
            ..Default::default()
        };
        run_dsa_campaign(&g, target, &cc);
        let report = spans.report();
        report
            .rows
            .iter()
            .find(|r| r.phase == PhaseId::SimStepDsa)
            .unwrap_or_else(|| panic!("no SimStepDsa span rows for {engine:?}"))
            .p50_us
    };
    let cycle = p50(DsaEngine::Cycle);
    let event = p50(DsaEngine::Event);
    assert!(
        event * 2 <= cycle,
        "event-engine SimStepDsa p50 ({event} µs) must be at most half the \
         cycle oracle's ({cycle} µs)"
    );
}
