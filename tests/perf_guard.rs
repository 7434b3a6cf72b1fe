//! Perf guards for the campaign engine, in deterministic counters rather
//! than wall clock, so CI noise cannot flake them and each fails on the
//! regression it names: the dirty reset must touch a small bounded slice
//! of the checkpoint; the checkpoint ladder must cut the fault-free prefix
//! a late injection re-simulates to one inter-rung gap, on the CPU and the
//! DSA; the event engine must drive every DSA run and evaluate a fraction
//! of the nodes the cycle oracle does; lane passes must stay full. The
//! shipped config must take the convergence exit, and build a ladder only
//! for the transient campaigns that can use one, out of the rungs the
//! golden run froze, without simulating the golden run again.

use gem5_marvel::core::{
    build_campaign_ladder, dsa_campaign_masks, run_campaign, run_dsa_campaign, run_dsa_masks, run_masks,
    CampaignConfig, DsaEngine, DsaGolden, DsaOutcome, FaultKind, FaultMask, FaultModel, Golden,
    MaskGenerator, ResetMode, Target, TelemetryConfig,
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

fn crc32_golden() -> Golden {
    let bin = assemble(&mibench::build("crc32"), Isa::RiscV).unwrap();
    let mut sys = gem5_marvel::soc::System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

#[test]
fn dirty_reset_touches_bounded_bytes_on_early_terminated_runs() {
    let g = crc32_golden();

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

/// Ladder guard body, shared by the CPU and DSA twins: each of `n` late
/// transients reports the fault-free prefix it simulated (injection cycle
/// minus the restored rung's cycle) under `<scope>.prefix_cycles`. With
/// `rungs` rungs over a `cycles`-long run that is bounded by one
/// inter-rung gap, cycles/(rungs+1); allow cycles/rungs for rounding
/// slack. Without the ladder the mean sits at ≥ 0.8 × cycles. The prefix
/// skipped per run must dwarf that budget.
fn assert_residual_prefix_bounded(registry: &Registry, scope: &str, n: usize, cycles: u64, rungs: u64) {
    let hist = |name: &str| {
        registry.histogram(&format!("{scope}.{name}")).expect("registry is live").snapshot()
    };
    let simulated = hist("prefix_cycles");
    assert_eq!(simulated.count, n as u64, "every transient run must report its residual prefix");
    let budget = (cycles / rungs) as f64;
    assert!(
        simulated.mean() <= budget,
        "{scope}: mean residual prefix {:.0} cycles exceeds the inter-rung budget {budget:.0} \
         (run length {cycles})",
        simulated.mean()
    );
    let skipped = hist("prefix_cycles_skipped");
    assert!(
        skipped.mean() >= 4.0 * budget,
        "{scope}: skipped-prefix mean {:.0} is too small for a late-injection campaign",
        skipped.mean()
    );
}

/// The CPU twin, on the shipped config and its 32 rungs, so a ladder
/// that quietly falls back to fewer rungs fails the exec/32 budget.
#[test]
fn ladder_bounds_residual_prefix_on_late_injections() {
    let g = crc32_golden();

    let registry = Registry::new();
    // lane_width 0: the guard asserts one prefix_cycles sample per run,
    // which is a scalar-engine invariant — a lane pass simulates the
    // residual prefix once for every lane it carries.
    let cc = CampaignConfig {
        workers: 2,
        lane_width: 0,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    let rungs = cc.ladder_rungs as u64;
    // Masks windowed into the last fifth of the injection window — the
    // worst case for the full-prefix engine (each run used to re-simulate
    // ≥80% of the golden run fault-free before the flip even landed).
    let w = g.injection_window();
    let late = (w.start + (w.end - w.start) * 4 / 5)..w.end;
    let n = 32;
    let mut gen = MaskGenerator::new(0x1ADDE2);
    let masks =
        gen.single_bit(Target::PrfInt, g.ckpt.bit_len(Target::PrfInt), FaultKind::Transient, late, n);
    assert_eq!(run_masks(&g, &masks, &cc).len(), n);
    assert_residual_prefix_bounded(&registry, "campaign", n, g.exec_cycles, rungs);
}

fn fft_golden() -> DsaGolden {
    let d = accel::design("FFT");
    DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000)
}

/// The DSA twin, on the shipped config and its 8 rungs: FFT SPM
/// transients in the last fifth of the accelerator run restore the rung
/// below their injection.
#[test]
fn dsa_ladder_bounds_residual_prefix_on_late_injections() {
    let g = fft_golden();
    let registry = Registry::new();
    let cc = CampaignConfig {
        workers: 2,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    let target = Target::Spm { accel: 0, mem: 0 };
    let n = 32;
    let mut gen = MaskGenerator::new(0x1ADDE2);
    let masks = gen.single_bit(
        target,
        g.harness.bit_len(target),
        FaultKind::Transient,
        g.cycles * 4 / 5..g.cycles,
        n,
    );
    assert_eq!(run_dsa_masks(&g, target, &masks, &cc).n(), n);
    assert_residual_prefix_bounded(&registry, "dsa", n, g.cycles, 8);
}

/// The shipped config's convergence exit, in counters: a load-queue
/// transient on crc32 is mostly read and then masked, and such a run must
/// stop at the next rung whose golden state it matches instead of
/// simulating to the golden halt. The config names no exit setting, so
/// turning the default off again fails here (no run converges).
#[test]
fn shipped_config_ends_masked_lq_runs_at_a_rung() {
    let g = crc32_golden();
    let registry = Registry::new();
    let cc = CampaignConfig {
        n_faults: 48,
        workers: 1,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    let res = run_campaign(&g, Target::LoadQueue, &cc);
    assert!(
        res.convergence_exit_rate() >= 0.5,
        "only {:.0}% of the LQ runs took the convergence exit",
        res.convergence_exit_rate() * 100.0
    );
    let converged = res.records.iter().filter(|r| r.converged).count() as u64;
    assert_eq!(registry.counter("campaign.convergence_exits").get(), converged);
    assert_state_deferrals_split(&registry);
}

/// Every `state` deferral is counted under exactly one structure: the
/// first the convergence compare found different.
fn assert_state_deferrals_split(registry: &Registry) {
    let structures =
        ["devices", "ram", "pipeline", "rob", "lsq", "rename", "bp", "prf", "l1i", "l1d", "l2"];
    let metric = |s: &str| registry.counter(&format!("campaign.convergence_deferred.state.{s}")).get();
    let by_structure: u64 = structures.iter().map(|s| metric(s)).sum();
    let state = registry.counter("campaign.convergence_deferred.state").get();
    assert_eq!(by_structure, state, "structures must sum to campaign.convergence_deferred.state");
}

/// Ladder guard: a permanent campaign's runs all start at the checkpoint,
/// so it builds no ladder and publishes no `*.ladder_rungs`; a transient
/// campaign builds the shipped rungs, 32 on the CPU and 8 on the DSA.
#[test]
fn only_transient_campaigns_build_a_ladder() {
    let rungs = |reg: &Registry, name: &str| {
        reg.snapshot().counters.into_iter().find(|(n, _)| n == name).map(|(_, v)| v)
    };
    let config = |kind, registry: &Registry| CampaignConfig {
        n_faults: 4,
        kind,
        workers: 1,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    let g = crc32_golden();
    let d = accel::design("FFT");
    let dg = DsaGolden::prepare((d.make)(FuConfig::default()), 50_000_000);
    for (kind, cpu, dsa) in
        [(FaultKind::Permanent, None, None), (FaultKind::Transient, Some(32), Some(8))]
    {
        let registry = Registry::new();
        run_campaign(&g, Target::L1D, &config(kind, &registry));
        assert_eq!(rungs(&registry, "campaign.ladder_rungs"), cpu, "CPU {kind:?}");
        let registry = Registry::new();
        run_dsa_campaign(&dg, d.components[0].target, &config(kind, &registry));
        assert_eq!(rungs(&registry, "dsa.ladder_rungs"), dsa, "DSA {kind:?}");
    }
}

/// One golden simulation per CPU program, in simulated cycles: preparing
/// the golden run ticks the program once — warm-up to the checkpoint,
/// then the golden run, which freezes the ladder as it goes — and handing
/// a transient campaign its 32 rungs ticks nothing. Replaying the golden
/// run to build rungs fails the second count.
#[test]
fn campaign_ladder_simulates_no_cycle() {
    let ticks = gem5_marvel::soc::thread_ticks;
    let before = ticks();
    let g = crc32_golden();
    assert_eq!(
        ticks() - before,
        g.ckpt_cycle + g.exec_cycles,
        "golden prep must simulate the program exactly once"
    );
    let cc = CampaignConfig { n_faults: 4, workers: 1, ..CampaignConfig::default() };
    let before = ticks();
    let ladder = build_campaign_ladder(&g, &cc).expect("a transient campaign has a ladder");
    assert_eq!(ladder.len(), 32);
    let replayed = ticks() - before;
    assert_eq!(replayed, 0, "building the campaign's ladder simulated {replayed} cycles");
}

/// Compact-rung guard, in bytes: the shipped crc32 ladder has 32 rungs,
/// each a snapshot without RAM or cache lines plus the pages and sets
/// written since the checkpoint. No rung may hold as much as the L2's
/// line array (1 MiB), which a rung holding the full RAM or full cache
/// line arrays would, and all 32 together stay under one system's RAM
/// (4 MiB), which a single thawed rung (5.3 MiB) would break alone.
/// `campaign.ladder_bytes` publishes the total.
#[test]
fn shipped_cpu_ladder_holds_compact_rungs() {
    let g = crc32_golden();
    let registry = Registry::new();
    let cc = CampaignConfig {
        n_faults: 4,
        workers: 1,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    let ladder = build_campaign_ladder(&g, &cc).expect("a transient campaign has a ladder");
    assert_eq!(ladder.len(), 32);
    let held = registry.counter("campaign.ladder_bytes").get();
    assert_eq!(held, ladder.held_bytes());
    let l2_lines = CoreConfig::table2(Isa::RiscV).l2.size as u64;
    for k in 0..ladder.len() {
        let rung = ladder.rung(k).held_bytes();
        assert!(rung < l2_lines, "rung {k} holds {rung} B, as much as the L2's line array");
    }
    let ram = gem5_marvel::ir::memmap::RAM_SIZE;
    assert!(held <= ram, "the 32 rungs hold {held} B, more than one system's RAM ({ram} B)");
}

/// Lane-utilization guard, in counters rather than wall-clock: on a
/// packable campaign (single-bit PRF transients) under the shipped config,
/// the lane engine must actually pack nearly every run, keep the mean
/// lanes per pass at 8 or more, and fork only a bounded fraction back to
/// scalar re-runs. A regression that silently degrades packing (masks
/// misgrouped, lanes forked eagerly, eligibility over-tightened, a narrower
/// pack) trips this.
#[test]
fn lane_packing_sustains_occupancy_and_bounded_forks() {
    let g = crc32_golden();

    let registry = Registry::new();
    let n = 96;
    let cc = CampaignConfig {
        n_faults: n,
        workers: 2,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
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
    // Mean lanes per pass: packs group by the 9 segments of 8 rungs
    // placed over the shipped 32-rung ladder, so ~n/9 ≈ 10.7 lanes share
    // each pass. A shared golden pass breaks even with scalar runs
    // somewhere between about 4 and 12 lanes: on the six packable
    // `cpu_transient` campaigns (`marvel campaign`, 2 workers, whole-command
    // wall time with ~2.9 s of golden prep, alternating runs), 36 faults
    // (~4 lanes per pass) took 6.00 s with lanes and 5.56 s scalar, while
    // 108 faults took 8.41 s with lanes and 10.75 s scalar. The floor of 8
    // keeps packs out of the losing end of that range.
    let occupancy = packed as f64 / passes as f64;
    assert!(
        occupancy >= 8.0,
        "mean lane occupancy {occupancy:.2} ({packed} runs in {passes} passes) is below 8"
    );
    // Forks are safe but must stay the exception: a PRF-transient
    // campaign is overwhelmingly masked, so at most a quarter of packed
    // lanes may leave their pass for a scalar re-run.
    assert!(forks * 4 <= packed, "{forks} of {packed} packed lanes forked to scalar re-runs");
    // Every fork is counted under exactly one cause.
    let causes =
        ["trap", "jump", "branch", "address", "store_data", "cache_read", "cache_evict", "unfinished"];
    let by_cause: u64 =
        causes.iter().map(|c| registry.counter(&format!("campaign.lane_forks.{c}")).get()).sum();
    assert_eq!(by_cause, forks, "fork causes must sum to campaign.lane_forks");
    assert_state_deferrals_split(&registry);
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

/// Event-engine guard, in counters: every run of a shipped-config FFT SPM
/// campaign must step on the event engine (one `TraceReplay` span per
/// run; a campaign that falls back to the cycle engine records none), and
/// on the same masks, run to the end, the event engine must evaluate at
/// most a tenth of the nodes the cycle oracle evaluates — golden replay
/// memoizes all but the taint cone and the warp collapses whole blocks.
#[test]
fn event_engine_drives_every_run_at_a_tenth_of_the_oracle_evals() {
    let g = fft_golden();
    let target = Target::Spm { accel: 0, mem: 0 };
    let spans = SpanCollector::enabled();
    let cc = CampaignConfig {
        n_faults: 12,
        workers: 2,
        telemetry: TelemetryConfig { spans: spans.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    let runs = run_dsa_campaign(&g, target, &cc).n() as u64;
    let replays = spans.report().calls(PhaseId::TraceReplay);
    assert_eq!(replays, runs, "only {replays} of {runs} runs stepped on the event engine");

    let evals = |engine: DsaEngine| {
        let (mut evals, mut warps) = (0, 0);
        for mask in &dsa_campaign_masks(&g, target, &cc) {
            let mut h = g.harness.clone();
            if engine == DsaEngine::Event {
                assert!(h.accel.set_engine_event(), "FFT must be schedulable");
                h.accel.enable_taint(&target.name());
            }
            h.run(Some(mask), g.watchdog());
            evals += h.accel.stats.node_evals;
            warps += h.accel.stats.warp_blocks;
        }
        (evals, warps)
    };
    let (oracle, _) = evals(DsaEngine::Cycle);
    let (event, warps) = evals(DsaEngine::Event);
    assert!(
        event * 10 <= oracle,
        "the event engine evaluated {event} nodes, more than a tenth of the cycle oracle's {oracle}"
    );
    assert!(warps > 0, "no block was warped");
}

/// Warp guard, in counters: a shipped-config FFT SPM campaign runs on the
/// event engine (no fallback), warps blocks, and counts every fresh block
/// instance the warp declined under exactly one reason.
#[test]
fn warp_declines_are_counted_by_reason() {
    let g = fft_golden();
    let registry = Registry::new();
    let cc = CampaignConfig {
        n_faults: 12,
        workers: 2,
        telemetry: TelemetryConfig { registry: registry.clone(), ..Default::default() },
        ..CampaignConfig::default()
    };
    run_dsa_campaign(&g, Target::Spm { accel: 0, mem: 0 }, &cc);
    let count = |m: &str| registry.counter(m).get();
    assert_eq!(count("dsa.engine_fallback"), 0, "FFT has an armed replay");
    assert!(count("dsa.warp_blocks") > 0, "no block was warped");
    let reasons = ["ctl", "misaligned", "tainted_args", "budget", "tainted_load"];
    let by_reason: u64 = reasons.iter().map(|r| count(&format!("dsa.warp_aborts.{r}"))).sum();
    assert_eq!(by_reason, count("dsa.warp_aborts"), "reasons must sum to dsa.warp_aborts");
}
