//! Telemetry must be strictly observational: a campaign with the full
//! observability stack enabled (registry, flight recorder) must produce
//! bit-identical classifications to a telemetry-disabled campaign with
//! the same `MaskGenerator` seed and `CampaignConfig`.

use gem5_marvel::core::{
    run_campaign, run_dsa_campaign, CampaignConfig, DsaEngine, DsaGolden, Golden, ResetMode,
    TelemetryConfig,
};
use gem5_marvel::cpu::CoreConfig;
use gem5_marvel::ir::assemble;
use gem5_marvel::isa::Isa;
use gem5_marvel::soc::{System, Target};
use gem5_marvel::telemetry::{Registry, SpanCollector};
use gem5_marvel::workloads::{accel, mibench};
use marvel_accel::FuConfig;

fn golden(bench: &str, isa: Isa) -> Golden {
    let bin = assemble(&mibench::build(bench), isa).unwrap();
    let mut sys = System::new(CoreConfig::table2(isa));
    sys.load_binary(&bin);
    Golden::prepare(sys, 80_000_000).unwrap()
}

fn full_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        registry: Registry::new(),
        // Progress printing is wall-clock driven and stderr-only; leave it
        // off in tests but exercise registry + recorder, the two pieces
        // that touch the run path.
        progress_interval_ms: 0,
        flight_capacity: 64,
        taint: false,
        // Span tracing rides along: it must be observational too.
        spans: SpanCollector::enabled(),
    }
}

#[test]
fn cpu_campaign_classifications_invariant_under_telemetry() {
    let g = golden("bitcount", Isa::RiscV);
    for target in [Target::PrfInt, Target::L1D] {
        let plain = CampaignConfig {
            n_faults: 24,
            workers: 4,
            collect_hvf: true,
            ladder_rungs: 0,
            ..Default::default()
        };
        let instrumented = CampaignConfig { telemetry: full_telemetry(), ..plain.clone() };

        let r1 = run_campaign(&g, target, &plain);
        let r2 = run_campaign(&g, target, &instrumented);

        let e1: Vec<_> = r1.records.iter().map(|r| (r.effect, r.hvf, r.trap, r.cycles)).collect();
        let e2: Vec<_> = r2.records.iter().map(|r| (r.effect, r.hvf, r.trap, r.cycles)).collect();
        assert_eq!(e1, e2, "telemetry perturbed {target:?} classifications");

        // The instrumented run actually recorded something.
        let snap = instrumented.telemetry.registry.snapshot();
        assert!(!snap.counters.is_empty(), "no metrics published");
        let runs = snap.counters.iter().find(|(n, _)| n == "campaign.runs").unwrap().1;
        assert_eq!(runs, 24);
        // Forensics retained exactly for the SDC/Crash runs.
        for r in &r2.records {
            use gem5_marvel::core::FaultEffect;
            assert_eq!(r.forensics.is_some(), r.effect != FaultEffect::Masked, "forensics retention");
        }
    }
}

#[test]
fn repeated_instrumented_campaigns_are_identical() {
    // Same seed + config with telemetry enabled twice: tallies must match
    // run-for-run (worker scheduling must not leak into results).
    let g = golden("crc32", Isa::Arm);
    let cc1 = CampaignConfig {
        n_faults: 16,
        workers: 3,
        telemetry: full_telemetry(),
        ladder_rungs: 0,
        ..Default::default()
    };
    let cc2 = CampaignConfig {
        n_faults: 16,
        workers: 3,
        telemetry: full_telemetry(),
        ladder_rungs: 0,
        ..Default::default()
    };
    let r1 = run_campaign(&g, Target::L1D, &cc1);
    let r2 = run_campaign(&g, Target::L1D, &cc2);
    let e1: Vec<_> = r1.records.iter().map(|r| (r.effect, r.cycles)).collect();
    let e2: Vec<_> = r2.records.iter().map(|r| (r.effect, r.cycles)).collect();
    assert_eq!(e1, e2);
    // Effect-class tallies in the registries agree too.
    let tally = |reg: &Registry, name: &str| {
        reg.snapshot().counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    for name in ["campaign.sdc", "campaign.crash", "campaign.masked", "campaign.early_terminated"] {
        assert_eq!(
            tally(&cc1.telemetry.registry, name),
            tally(&cc2.telemetry.registry, name),
            "{name} tally diverged between identical campaigns"
        );
    }
}

#[test]
fn dsa_campaign_classifications_invariant_under_telemetry() {
    let d = accel::designs().into_iter().find(|d| d.name == "FFT").expect("FFT design");
    let golden = DsaGolden::prepare((d.make)(FuConfig::uniform(4)), 100_000_000);
    let target = d.components[0].target;

    let plain = CampaignConfig { n_faults: 20, workers: 4, ladder_rungs: 0, ..Default::default() };
    let instrumented = CampaignConfig { telemetry: full_telemetry(), ..plain.clone() };
    let r1 = run_dsa_campaign(&golden, target, &plain);
    let r2 = run_dsa_campaign(&golden, target, &instrumented);

    let e1: Vec<_> = r1.records.iter().map(|r| (r.effect, r.trap, r.cycles)).collect();
    let e2: Vec<_> = r2.records.iter().map(|r| (r.effect, r.trap, r.cycles)).collect();
    assert_eq!(e1, e2, "telemetry perturbed DSA classifications");

    let snap = instrumented.telemetry.registry.snapshot();
    let runs = snap.counters.iter().find(|(n, _)| n == "dsa.runs").unwrap().1;
    assert_eq!(runs, 20);
}

/// Sorted counter and histogram names a registry holds.
fn metric_names(reg: &Registry) -> (Vec<String>, Vec<String>) {
    let snap = reg.snapshot();
    let mut counters: Vec<String> = snap.counters.into_iter().map(|(n, _)| n).collect();
    let mut hists: Vec<String> = snap.histograms.into_iter().map(|(n, _)| n).collect();
    counters.sort();
    hists.sort();
    (counters, hists)
}

/// The registry names one campaign publishes, pinned: perfbench, the
/// `METRICS`/Prometheus exports and the tallies above read them by name,
/// so a change to the campaign driver must publish exactly this set.
/// One worker keeps the lazily registered reset histograms deterministic.
#[test]
fn campaign_drives_publish_pinned_metric_names() {
    let g = golden("crc32", Isa::RiscV);
    let cc = CampaignConfig {
        n_faults: 24,
        workers: 1,
        ladder_rungs: 8,
        lane_width: 64,
        reset_mode: ResetMode::Dirty,
        telemetry: TelemetryConfig { registry: Registry::new(), ..Default::default() },
        ..Default::default()
    };
    run_campaign(&g, Target::PrfInt, &cc);
    let (counters, hists) = metric_names(&cc.telemetry.registry);
    assert_eq!(
        counters,
        [
            "campaign.bit_population",
            "campaign.convergence_deferred.fate_split",
            "campaign.convergence_deferred.hvf",
            "campaign.convergence_deferred.state",
            "campaign.convergence_deferred.state.bp",
            "campaign.convergence_deferred.state.devices",
            "campaign.convergence_deferred.state.l1d",
            "campaign.convergence_deferred.state.l1i",
            "campaign.convergence_deferred.state.l2",
            "campaign.convergence_deferred.state.lsq",
            "campaign.convergence_deferred.state.pipeline",
            "campaign.convergence_deferred.state.prf",
            "campaign.convergence_deferred.state.ram",
            "campaign.convergence_deferred.state.rename",
            "campaign.convergence_deferred.state.rob",
            "campaign.convergence_deferred.taint",
            "campaign.convergence_exits",
            "campaign.crash",
            "campaign.early_terminated",
            "campaign.golden_exec_cycles",
            "campaign.ladder_build_ns",
            "campaign.ladder_bytes",
            "campaign.ladder_rungs",
            "campaign.lane_forks",
            "campaign.lane_forks.address",
            "campaign.lane_forks.branch",
            "campaign.lane_forks.cache_evict",
            "campaign.lane_forks.cache_read",
            "campaign.lane_forks.jump",
            "campaign.lane_forks.store_data",
            "campaign.lane_forks.trap",
            "campaign.lane_forks.unfinished",
            "campaign.lane_passes",
            "campaign.lane_runs_packed",
            "campaign.masked",
            "campaign.runs",
            "campaign.sdc",
            "campaign.worker0.runs",
        ]
    );
    assert_eq!(
        hists,
        [
            "campaign.lane_occupancy",
            "campaign.prefix_cycles",
            "campaign.prefix_cycles_skipped",
            "campaign.restore_rung",
            "campaign.run_cycles",
        ]
    );

    let d = accel::designs().into_iter().find(|d| d.name == "FFT").expect("FFT design");
    let golden = DsaGolden::prepare((d.make)(FuConfig::uniform(4)), 100_000_000);
    let cc = CampaignConfig {
        n_faults: 24,
        workers: 1,
        ladder_rungs: 8,
        dsa_engine: DsaEngine::Event,
        reset_mode: ResetMode::Dirty,
        telemetry: TelemetryConfig { registry: Registry::new(), ..Default::default() },
        ..Default::default()
    };
    run_dsa_campaign(&golden, d.components[0].target, &cc);
    let (counters, hists) = metric_names(&cc.telemetry.registry);
    assert_eq!(
        counters,
        [
            "dsa.bit_population",
            "dsa.convergence_exits",
            "dsa.crash",
            "dsa.early_terminated",
            "dsa.engine_fallback",
            "dsa.golden_accel.blocks_executed",
            "dsa.golden_accel.compute_cycles",
            "dsa.golden_accel.cycles",
            "dsa.golden_accel.mem_reads",
            "dsa.golden_accel.mem_writes",
            "dsa.golden_accel.memo_hits",
            "dsa.golden_accel.node_evals",
            "dsa.golden_accel.nodes_executed",
            "dsa.golden_accel.spm0.reads",
            "dsa.golden_accel.spm0.writes",
            "dsa.golden_accel.spm1.reads",
            "dsa.golden_accel.spm1.writes",
            "dsa.golden_accel.spm2.reads",
            "dsa.golden_accel.spm2.writes",
            "dsa.golden_cycles",
            "dsa.ladder_build_ns",
            "dsa.ladder_rungs",
            "dsa.masked",
            "dsa.runs",
            "dsa.sdc",
            "dsa.warp_aborts",
            "dsa.warp_aborts.budget",
            "dsa.warp_aborts.ctl",
            "dsa.warp_aborts.misaligned",
            "dsa.warp_aborts.tainted_args",
            "dsa.warp_aborts.tainted_load",
            "dsa.warp_blocks",
            "dsa.worker0.runs",
        ]
    );
    assert_eq!(
        hists,
        [
            "dsa.prefix_cycles",
            "dsa.prefix_cycles_skipped",
            "dsa.reset_bytes",
            "dsa.reset_ns",
            "dsa.restore_rung",
            "dsa.run_cycles"
        ]
    );
}
