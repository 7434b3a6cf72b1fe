//! Campaign throughput rig: for each scenario, a *base* mode against an
//! *opt* mode — clone-per-run vs the zero-copy dirty reset on the CPU
//! side, the cycle-exact oracle vs the event-driven static-schedule
//! engine on the DSA side, and the full-prefix oracle vs the checkpoint
//! ladder + dirty-diff convergence exit — over transient and permanent
//! faults on both the CPU and DSA sides.
//!
//! Not a criterion target: the clone/dirty scenarios time every injection
//! run individually so they can report runs/sec plus p50/p95 per-run
//! latency, while the ladder scenarios time whole campaigns (the ladder
//! build is a per-campaign cost and must be charged to the optimised
//! mode). Results are written as machine-readable JSON
//! (`BENCH_campaign.json` at the workspace root, or `$BENCH_CAMPAIGN_JSON`)
//! for CI to archive.
//!
//! Three headline scenarios:
//!   * `cpu_prf_transient` — transient faults into the integer PRF of a
//!     short-window kernel, where most runs terminate early: under clone
//!     mode the checkpoint memcpy dominates wall-clock.
//!   * `dsa_spm_transient` — transient SPM faults on the FFT accelerator,
//!     cycle-exact oracle vs the event-driven engine with memoized golden
//!     replay on a shared dirty reset. The event engine must buy ≥10×
//!     (enforced at the bottom of `main`); exports stay byte-identical
//!     (see `tests/dsa_engine_differential.rs`).
//!   * `dsa_spm_late_transient` — transients windowed into the late 20% of
//!     the accelerator run, where the full-prefix engine re-simulates ≥80%
//!     of the golden run fault-free before the flip even lands. The
//!     checkpoint ladder must buy ≥2× here (enforced at the bottom of
//!     `main`); exports stay byte-identical to `--ladder-rungs 0` (see
//!     `tests/ladder_differential.rs`).

use marvel_core::{
    campaign_masks, run_dsa_masks, run_masks, run_one_spanned, CampaignConfig, DsaEngine, DsaGolden,
    DsaHarness, FaultKind, FaultMask, Golden, MaskGenerator, ResetMode, Target, TelemetryConfig,
    WorkerCtx,
};
use marvel_cpu::CoreConfig;
use marvel_ir::{assemble, FuncBuilder, Module};
use marvel_isa::{AluOp, Cond, Isa, MemWidth};
use marvel_soc::System;
use marvel_telemetry::{render_phase_object, Registry, SpanCollector, SpanLane};
use marvel_workloads::{accel, mibench};
use std::time::Instant;

/// Short post-checkpoint kernel (~a few thousand cycles): squares into a
/// buffer, then streams it to the console. Small enough that per-run
/// state handling, not simulation, dominates campaign wall-clock.
fn short_kernel() -> Module {
    let mut m = Module::new();
    let buf = m.global_zeroed("buf", 256, 8);
    let f = m.declare("main", 0);
    let mut b = FuncBuilder::new(0);
    let base = b.addr_of(buf);
    b.checkpoint();
    let i = b.li(0);
    let top = b.new_label();
    b.bind(top);
    let v = b.bin(AluOp::Mul, i, i);
    b.store_idx(MemWidth::D, v, base, i);
    let i2 = b.bin(AluOp::Add, i, 1);
    b.assign(i, i2);
    b.br(Cond::Lt, i, 32, top);
    let j = b.li(0);
    let top2 = b.new_label();
    b.bind(top2);
    let v2 = b.load_idx(MemWidth::D, false, base, j);
    b.out_byte(v2);
    let j2 = b.bin(AluOp::Add, j, 1);
    b.assign(j, j2);
    b.br(Cond::Lt, j, 32, top2);
    b.halt();
    m.define(f, b.build());
    m
}

/// One mode's measurement. Per-run latency percentiles are only available
/// when the rig drives runs one at a time; campaign-level modes report
/// throughput alone.
struct Sample {
    runs_per_sec: f64,
    p50_us: Option<f64>,
    p95_us: Option<f64>,
}

fn quantile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn sample(mut run: impl FnMut(), n: usize) -> Sample {
    let mut us: Vec<f64> = Vec::with_capacity(n);
    let t_all = Instant::now();
    for _ in 0..n {
        let t = Instant::now();
        run();
        us.push(t.elapsed().as_nanos() as f64 / 1_000.0);
    }
    let total = t_all.elapsed().as_secs_f64();
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Sample {
        runs_per_sec: n as f64 / total.max(1e-9),
        p50_us: Some(quantile(&us, 0.50)),
        p95_us: Some(quantile(&us, 0.95)),
    }
}

/// Time one whole campaign of `n` runs (used for the ladder scenarios,
/// where the per-campaign ladder build must be charged to the mode).
fn sample_campaign(n: usize, run: impl FnOnce()) -> Sample {
    let t = Instant::now();
    run();
    let total = t.elapsed().as_secs_f64();
    Sample { runs_per_sec: n as f64 / total.max(1e-9), p50_us: None, p95_us: None }
}

struct Mode {
    label: &'static str,
    /// Which DSA simulation engine drove the mode (`None` on the CPU
    /// side, where the knob does not exist).
    engine: Option<&'static str>,
    s: Sample,
}

/// Lane-packed campaign leg: the scalar oracle (`lane_width: 0`) against
/// the 64-wide bit-plane engine on the same masks, dirty reset and worker
/// count, so the ratio isolates the lane packing itself. Occupancy and
/// fork counts come from the campaign registry
/// (`campaign.lane_runs_packed / campaign.lane_passes`).
struct LaneLeg {
    scalar: Sample,
    lane: Sample,
    mean_occupancy: f64,
    passes: u64,
    forks: u64,
}

impl LaneLeg {
    fn speedup(&self) -> f64 {
        self.lane.runs_per_sec / self.scalar.runs_per_sec.max(1e-9)
    }
}

struct Scenario {
    name: &'static str,
    side: &'static str,
    target: String,
    kind: &'static str,
    runs: usize,
    base: Mode,
    opt: Mode,
    /// Scalar-vs-lane-packed campaign comparison; only present where the
    /// faults are lane-packable (single-bit CPU transients).
    lane: Option<LaneLeg>,
    /// Per-phase wall-time attribution for the opt mode, as a rendered
    /// JSON object (`{"SimStepCpu": {"calls": .., "self_us": ..}, ..}`) —
    /// a spans-enabled re-run at workers=1 so self-times sum sensibly.
    phases: String,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        self.opt.s.runs_per_sec / self.base.s.runs_per_sec.max(1e-9)
    }
}

fn lane_leg(golden: &Golden, masks: &[FaultMask], kind: FaultKind) -> LaneLeg {
    let cc = |lane_width: usize, registry: Registry| CampaignConfig {
        kind,
        workers: 1,
        reset_mode: ResetMode::Dirty,
        lane_width,
        telemetry: TelemetryConfig { registry, ..Default::default() },
        ladder_rungs: 0,
        ..Default::default()
    };
    let n = masks.len();
    let scalar = sample_campaign(n, || {
        run_masks(golden, masks, &cc(0, Registry::disabled()));
    });
    let registry = Registry::new();
    let lane = sample_campaign(n, || {
        run_masks(golden, masks, &cc(64, registry.clone()));
    });
    let passes = registry.counter("campaign.lane_passes").get();
    let packed = registry.counter("campaign.lane_runs_packed").get();
    let forks = registry.counter("campaign.lane_forks").get();
    LaneLeg {
        scalar,
        lane,
        mean_occupancy: if passes > 0 { packed as f64 / passes as f64 } else { 0.0 },
        passes,
        forks,
    }
}

/// Config for the per-scenario profiling pass: the opt mode's state
/// handling (dirty reset; ladder when the scenario uses one) with span
/// tracing enabled, single-threaded so per-phase self-times attribute
/// the scenario's whole wall clock.
fn profile_config(
    kind: FaultKind,
    rungs: usize,
    engine: DsaEngine,
    spans: &SpanCollector,
) -> CampaignConfig {
    CampaignConfig {
        kind,
        workers: 1,
        reset_mode: ResetMode::Dirty,
        ladder_rungs: rungs,
        convergence_exit: rungs > 0,
        dsa_engine: engine,
        telemetry: TelemetryConfig { spans: spans.clone(), ..Default::default() },
        ..Default::default()
    }
}

fn profile_cpu(golden: &Golden, masks: &[FaultMask], kind: FaultKind, rungs: usize) -> String {
    let spans = SpanCollector::enabled();
    run_masks(golden, masks, &profile_config(kind, rungs, DsaEngine::Cycle, &spans));
    render_phase_object(&spans.report())
}

fn profile_dsa(
    golden: &DsaGolden,
    target: Target,
    masks: &[FaultMask],
    kind: FaultKind,
    rungs: usize,
    engine: DsaEngine,
) -> String {
    let spans = SpanCollector::enabled();
    run_dsa_masks(golden, target, masks, &profile_config(kind, rungs, engine, &spans));
    render_phase_object(&spans.report())
}

fn cpu_scenario(
    name: &'static str,
    golden: &Golden,
    target: Target,
    kind: FaultKind,
    n: usize,
) -> Scenario {
    let cc = CampaignConfig { n_faults: n, kind, ladder_rungs: 0, ..Default::default() };
    let masks = campaign_masks(golden, target, &cc);

    // Clone mode: every run deep-copies the checkpoint (ctx = None).
    let mut lane = SpanLane::disabled();
    let mut it = masks.iter().cycle();
    let clone = sample(
        || {
            run_one_spanned(golden, None, it.next().unwrap(), &cc, None, &mut lane);
        },
        n,
    );

    // Dirty mode: one reusable context; prime it so the first run's
    // unavoidable clone stays out of the timings.
    let mut ctx = WorkerCtx::new();
    run_one_spanned(golden, None, &masks[0], &cc, Some(&mut ctx), &mut lane);
    let mut it = masks.iter().cycle();
    let dirty = sample(
        || {
            run_one_spanned(golden, None, it.next().unwrap(), &cc, Some(&mut ctx), &mut lane);
        },
        n,
    );

    // Lane leg only where the faults can pack: single-bit transients on a
    // lane-packable structure. Permanents stay scalar (`lane: null`).
    let lane = (kind == FaultKind::Transient).then(|| lane_leg(golden, &masks, kind));

    Scenario {
        name,
        side: "cpu",
        target: target.name(),
        kind: kind_name(kind),
        runs: n,
        base: Mode { label: "clone", engine: None, s: clone },
        opt: Mode { label: "dirty", engine: None, s: dirty },
        lane,
        phases: profile_cpu(golden, &masks, kind, 0),
    }
}

fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Permanent => "permanent",
        FaultKind::PermanentStuck0 => "stuck0",
        FaultKind::PermanentStuck1 => "stuck1",
    }
}

/// Cycle-exact oracle vs the event-driven static-schedule engine with
/// memoized golden replay, both on the zero-copy dirty reset so the
/// measured ratio isolates the simulation engine itself. This is the
/// headline DSA comparison: the event engine must buy ≥10× on
/// `dsa_spm_transient` (enforced at the bottom of `main`) while staying
/// byte-identical to the oracle (`tests/dsa_engine_differential.rs`).
fn dsa_scenario(name: &'static str, golden: &DsaGolden, kind: FaultKind, n: usize) -> Scenario {
    let target = Target::Spm { accel: 0, mem: 0 };
    let bit_len = golden.harness.accel.spms[0].bit_len();
    let mut gen = MaskGenerator::new(0xC0FFEE ^ 0xD5A);
    let masks = gen.single_bit(target, bit_len, kind, 1..golden.cycles.max(2), n);
    let watchdog = golden.watchdog();

    let mut reusable: Box<DsaHarness> = Box::new(golden.harness.clone());
    let mut it = masks.iter().cycle();
    let cycle = sample(
        || {
            reusable.reset_from(&golden.harness);
            let _ = reusable.run(Some(it.next().unwrap()), watchdog);
        },
        n,
    );

    // Event mode: the reset restores the base harness's cycle engine, so
    // each run re-selects the event engine and re-arms the taint planes
    // the replay memoizer keys on — exactly what the campaign driver does
    // per run.
    let mut reusable: Box<DsaHarness> = Box::new(golden.harness.clone());
    let mut it = masks.iter().cycle();
    let tname = target.name();
    let event = sample(
        || {
            reusable.reset_from(&golden.harness);
            reusable.accel.set_engine_event();
            reusable.accel.enable_taint(&tname);
            let _ = reusable.run(Some(it.next().unwrap()), watchdog);
        },
        n,
    );

    Scenario {
        name,
        side: "dsa",
        target: target.name(),
        kind: kind_name(kind),
        runs: n,
        base: Mode { label: "dirty", engine: Some("cycle"), s: cycle },
        opt: Mode { label: "dirty", engine: Some("event"), s: event },
        lane: None,
        phases: profile_dsa(golden, target, &masks, kind, 0, DsaEngine::Event),
    }
}

/// Full-prefix oracle vs checkpoint ladder + convergence exit, with all
/// injections windowed into the late 20% of the run — the ladder's
/// headline case. Both modes share the dirty reset and worker count, so
/// the measured ratio isolates the prefix elimination itself.
fn ladder_config(rungs: usize) -> CampaignConfig {
    CampaignConfig {
        workers: 2,
        reset_mode: ResetMode::Dirty,
        ladder_rungs: rungs,
        convergence_exit: rungs > 0,
        // Pinned to the cycle oracle on both sides of the comparison so
        // the ≥2× ladder floor keeps measuring prefix elimination alone,
        // not the (much larger) event-engine win measured above. Lane
        // packing is pinned off for the same reason.
        dsa_engine: DsaEngine::Cycle,
        lane_width: 0,
        ..Default::default()
    }
}

fn cpu_ladder_scenario(name: &'static str, golden: &Golden, n: usize) -> Scenario {
    let w = golden.injection_window();
    let late = (w.start + (w.end - w.start) * 4 / 5)..w.end;
    let mut gen = MaskGenerator::new(0xBE7C4);
    let masks = gen.single_bit(
        Target::PrfInt,
        golden.ckpt.bit_len(Target::PrfInt),
        FaultKind::Transient,
        late,
        n,
    );

    let base = sample_campaign(n, || {
        run_masks(golden, &masks, &ladder_config(0));
    });
    let opt = sample_campaign(n, || {
        run_masks(golden, &masks, &ladder_config(8));
    });

    Scenario {
        name,
        side: "cpu",
        target: Target::PrfInt.name(),
        kind: "transient",
        runs: n,
        base: Mode { label: "full_prefix", engine: None, s: base },
        opt: Mode { label: "ladder8+conv", engine: None, s: opt },
        lane: None,
        phases: profile_cpu(golden, &masks, FaultKind::Transient, 8),
    }
}

fn dsa_ladder_scenario(name: &'static str, golden: &DsaGolden, n: usize) -> Scenario {
    let target = Target::Spm { accel: 0, mem: 0 };
    let bit_len = golden.harness.accel.spms[0].bit_len();
    let late = (golden.cycles * 4 / 5).max(1)..golden.cycles.max(2);
    let mut gen = MaskGenerator::new(0xBE7C4 ^ 0xD5A);
    let masks = gen.single_bit(target, bit_len, FaultKind::Transient, late, n);

    let base = sample_campaign(n, || {
        run_dsa_masks(golden, target, &masks, &ladder_config(0));
    });
    let opt = sample_campaign(n, || {
        run_dsa_masks(golden, target, &masks, &ladder_config(8));
    });

    Scenario {
        name,
        side: "dsa",
        target: target.name(),
        kind: "transient",
        runs: n,
        base: Mode { label: "full_prefix", engine: Some("cycle"), s: base },
        opt: Mode { label: "ladder8+conv", engine: Some("cycle"), s: opt },
        lane: None,
        phases: profile_dsa(golden, target, &masks, FaultKind::Transient, 8, DsaEngine::Cycle),
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |v| format!("{v:.1}"))
}

fn emit_json(scenarios: &[Scenario], path: &str) {
    // v5: lane-packable scenarios carry a "lane" leg — the scalar oracle
    // vs the 64-wide bit-plane engine on the same masks, with
    // mean_lane_occupancy and fork counts from the campaign registry;
    // scenarios without packable faults record "lane": null.
    // (v4 added per-mode DSA "engine" keys; v3 the "phases" object.)
    let mut out = String::from("{\n  \"schema_version\": 5,\n  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 < scenarios.len() { "," } else { "" };
        let mode = |m: &Mode| {
            let engine = m.engine.map_or_else(String::new, |e| format!("\"engine\": \"{e}\", "));
            format!(
                "{{\"mode\": \"{}\", {}\"runs_per_sec\": {:.1}, \"p50_us\": {}, \"p95_us\": {}}}",
                m.label,
                engine,
                m.s.runs_per_sec,
                json_opt(m.s.p50_us),
                json_opt(m.s.p95_us),
            )
        };
        let lane = s.lane.as_ref().map_or_else(
            || "null".into(),
            |l| {
                format!(
                    "{{\"lane_width\": 64, \"scalar_runs_per_sec\": {:.1}, \
                     \"lane_runs_per_sec\": {:.1}, \"mean_lane_occupancy\": {:.2}, \
                     \"passes\": {}, \"forks\": {}, \"speedup\": {:.2}}}",
                    l.scalar.runs_per_sec,
                    l.lane.runs_per_sec,
                    l.mean_occupancy,
                    l.passes,
                    l.forks,
                    l.speedup(),
                )
            },
        );
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"side\": \"{}\", \"target\": \"{}\", \"kind\": \"{}\", \"runs\": {},\n      \
             \"base\": {},\n      \
             \"opt\": {},\n      \
             \"lane\": {},\n      \
             \"phases\": {},\n      \
             \"speedup\": {:.2}}}{}\n",
            s.name,
            s.side,
            s.target,
            s.kind,
            s.runs,
            mode(&s.base),
            mode(&s.opt),
            lane,
            s.phases,
            s.speedup(),
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

fn main() {
    let bin = assemble(&short_kernel(), Isa::RiscV).unwrap();
    let mut sys = System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    let cpu_golden = Golden::prepare(sys, 3_000_000).unwrap();

    // A real kernel with a long injection window for the ladder scenarios:
    // on the short kernel the fault-free prefix is a few thousand cycles,
    // so there is nothing worth eliminating.
    let bin = assemble(&mibench::build("crc32"), Isa::RiscV).unwrap();
    let mut sys = System::new(CoreConfig::table2(Isa::RiscV));
    sys.load_binary(&bin);
    let crc_golden = Golden::prepare(sys, 80_000_000).unwrap();

    let d = accel::design("FFT");
    let dsa_golden = DsaGolden::prepare((d.make)(marvel_accel::FuConfig::default()), 50_000_000);

    // DSA runs simulate tens of thousands of accelerator cycles each, so
    // they get fewer samples — they measure that state handling is *not*
    // the bottleneck there (speedup ≈ 1), unlike the CPU scenarios.
    let n_cpu = 200;
    let n_dsa = 150;
    let scenarios = vec![
        cpu_scenario("cpu_prf_transient", &cpu_golden, Target::PrfInt, FaultKind::Transient, n_cpu),
        cpu_scenario("cpu_prf_permanent", &cpu_golden, Target::PrfInt, FaultKind::Permanent, n_cpu),
        cpu_scenario("cpu_l1d_transient", &cpu_golden, Target::L1D, FaultKind::Transient, n_cpu),
        dsa_scenario("dsa_spm_transient", &dsa_golden, FaultKind::Transient, n_dsa),
        dsa_scenario("dsa_spm_permanent", &dsa_golden, FaultKind::Permanent, n_dsa),
        cpu_ladder_scenario("cpu_crc32_late_transient", &crc_golden, 32),
        dsa_ladder_scenario("dsa_spm_late_transient", &dsa_golden, 96),
    ];

    println!(
        "{:<26} {:>6} {:>13} {:>13} {:>9} {:>9} {:>8}",
        "scenario", "runs", "base r/s", "opt r/s", "p50 µs", "p95 µs", "speedup"
    );
    for s in &scenarios {
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".into(), |v: f64| format!("{v:.1}"));
        println!(
            "{:<26} {:>6} {:>13.0} {:>13.0} {:>9} {:>9} {:>7.2}x",
            s.name,
            s.runs,
            s.base.s.runs_per_sec,
            s.opt.s.runs_per_sec,
            fmt(s.opt.s.p50_us),
            fmt(s.opt.s.p95_us),
            s.speedup()
        );
    }
    for s in scenarios.iter().filter(|s| s.lane.is_some()) {
        let l = s.lane.as_ref().unwrap();
        println!(
            "{:<26} lane64 {:>12.0} -> {:>.0} r/s  occ {:>5.1}/64  passes {:>3}  forks {:>3}  {:>6.2}x",
            s.name,
            l.scalar.runs_per_sec,
            l.lane.runs_per_sec,
            l.mean_occupancy,
            l.passes,
            l.forks,
            l.speedup()
        );
    }

    let path = std::env::var("BENCH_CAMPAIGN_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json").into());
    emit_json(&scenarios, &path);
    eprintln!("wrote {path}");

    // Acceptance floor: the checkpoint ladder must buy at least 2× on the
    // late-injection DSA campaign. The margin is wide (the base mode
    // re-simulates ≥80% of the run fault-free), so this does not flake on
    // loaded CI runners.
    let dsa_late = scenarios.iter().find(|s| s.name == "dsa_spm_late_transient").unwrap();
    assert!(
        dsa_late.speedup() >= 2.0,
        "checkpoint ladder speedup regressed: {:.2}x < 2.0x on dsa_spm_late_transient",
        dsa_late.speedup()
    );

    // Acceptance floor for the event-driven engine: ≥10× the cycle-exact
    // oracle on the headline transient-SPM campaign. The margin is wide —
    // the oracle scans every node every cycle while replay memoizes all
    // but the taint cone — so this too holds on loaded CI runners.
    let dsa_t = scenarios.iter().find(|s| s.name == "dsa_spm_transient").unwrap();
    assert!(
        dsa_t.speedup() >= 10.0,
        "event-engine speedup regressed: {:.2}x < 10.0x on dsa_spm_transient",
        dsa_t.speedup()
    );

    // Acceptance floor for the lane-packed engine: ≥4× the scalar oracle
    // on the headline PRF-transient campaign. The margin is wide — a full
    // pass retires up to 64 masked lanes on one golden execution, and
    // PRF transients on the short kernel are overwhelmingly masked — so
    // this holds on loaded CI runners.
    let prf = scenarios.iter().find(|s| s.name == "cpu_prf_transient").unwrap();
    let lane = prf.lane.as_ref().expect("cpu_prf_transient must record a lane leg");
    assert!(
        lane.speedup() >= 4.0,
        "lane-packed speedup regressed: {:.2}x < 4.0x on cpu_prf_transient \
         (mean occupancy {:.1}, {} forks)",
        lane.speedup(),
        lane.mean_occupancy,
        lane.forks
    );
}
